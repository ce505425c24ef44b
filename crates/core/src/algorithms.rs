//! The [`Composer`] abstraction and the six algorithms of the paper's
//! evaluation (§4.1):
//!
//! | name      | per-hop selection       | final selection | global state |
//! |-----------|-------------------------|-----------------|--------------|
//! | `optimal` | exhaustive              | min φ(λ)        | precise      |
//! | `acp`     | risk/congestion ranking | min φ(λ)        | coarse       |
//! | `sp`      | risk/congestion ranking | random          | coarse       |
//! | `rp`      | random                  | min φ(λ)        | none         |
//! | `random`  | single random pick      | —               | none         |
//! | `static`  | single fixed pick       | —               | none         |

use acp_model::prelude::*;
use acp_simcore::SimTime;
use acp_state::GlobalStateBoard;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::naive::{blind_compose, BlindStrategy};
use crate::optimal::{optimal_compose, OptimalConfig};
use crate::overhead::OverheadStats;
use crate::protocol::{
    compose_with_setup, FinalSelection, ProbeScratch, ProbingConfig, Rules, SetupConfig, SetupStats, TwoPhase,
};
use crate::selection::HopSelection;

/// Result of one composition attempt.
#[derive(Debug, Clone, Default)]
pub struct ComposeOutcome {
    /// The established session, if composition succeeded.
    pub session: Option<SessionId>,
    /// Message ledger for this request.
    pub stats: OverheadStats,
    /// Setup ledger: the probing rounds run (one per request over a
    /// fault-free transport) and what message faults cost. All zero for
    /// the algorithms that commit without probing.
    pub setup: SetupStats,
    /// True when the search gave up before it finished: only the
    /// exhaustive baseline can, when it hits its expansion cap, and its
    /// answer is then the best found so far, not the optimum.
    pub truncated: bool,
}

/// A composition algorithm: given the system, the coarse global state and
/// a request, find and commit a component graph.
pub trait Composer {
    /// Short algorithm name used in reports ("acp", "optimal", …).
    fn name(&self) -> &'static str;

    /// Attempts to compose and commit `request` at simulated time `now`.
    fn compose(
        &mut self,
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
    ) -> ComposeOutcome;

    /// Updates the probing ratio, for algorithms that have one. Default:
    /// no-op.
    fn set_probing_ratio(&mut self, _alpha: f64) {}

    /// The current probing ratio, if the algorithm has one.
    fn probing_ratio(&self) -> Option<f64> {
        None
    }
}

/// The probing composers — ACP and its SP, RP and BCP variants — as one
/// type: they run the same protocol and differ only in the per-hop and
/// final selection rules their constructor pins (BCP also pins a probe
/// budget per function).
///
/// Every constructor sets up over the fault-free transport of
/// [`SetupConfig::default`]; [`Self::with_setup`] attaches another.
#[derive(Debug)]
pub struct ProbingComposer {
    name: &'static str,
    hop_selection: HopSelection,
    final_selection: FinalSelection,
    /// BCP's fixed probe budget per function, clamped to the candidate
    /// count; `None` probes `⌈α·k⌉`.
    budget: Option<usize>,
    config: ProbingConfig,
    rng: StdRng,
    setup: TwoPhase,
    /// The probe tree's storage, reused from request to request.
    scratch: ProbeScratch,
}

/// The ACP algorithm: [`ProbingComposer::new`].
pub type AcpComposer = ProbingComposer;

impl ProbingComposer {
    fn build(
        name: &'static str,
        (hop_selection, final_selection, budget): Rules,
        config: ProbingConfig,
        seed: u64,
    ) -> Self {
        ProbingComposer {
            name,
            hop_selection,
            final_selection,
            budget,
            config,
            rng: StdRng::seed_from_u64(seed),
            setup: TwoPhase::default(),
            scratch: ProbeScratch::default(),
        }
    }

    /// ACP: coarse-state-guided ranked per-hop selection with min-φ(λ)
    /// final selection.
    pub fn new(config: ProbingConfig, seed: u64) -> Self {
        Self::build("acp", (HopSelection::Ranked, FinalSelection::MinCongestion, None), config, seed)
    }

    /// SP baseline: ACP's per-hop selection, random final selection.
    pub fn sp(config: ProbingConfig, seed: u64) -> Self {
        Self::build("sp", (HopSelection::Ranked, FinalSelection::Random, None), config, seed)
    }

    /// RP baseline: random per-hop selection (fully distributed, no
    /// global state), ACP's min-φ(λ) final selection.
    pub fn rp(config: ProbingConfig, seed: u64) -> Self {
        Self::build("rp", (HopSelection::Random, FinalSelection::MinCongestion, None), config, seed)
    }

    /// Bounded composition probing (BCP) — the simpler ACP variant the
    /// paper's PlanetLab prototype implements (footnote 10): ACP's
    /// selection rules, but a **fixed** budget of `budget` probes per
    /// function instead of a tunable probing ratio (and hence no ratio
    /// tuner).
    ///
    /// # Panics
    ///
    /// Panics when `budget` is zero.
    pub fn bounded(budget: usize, config: ProbingConfig, seed: u64) -> Self {
        assert!(budget > 0, "probe budget must be positive");
        // Ranking considers every candidate; the budget caps the spawns.
        let config = ProbingConfig { probing_ratio: 1.0, ..config };
        Self::build("bcp", (HopSelection::Ranked, FinalSelection::MinCongestion, Some(budget)), config, seed)
    }

    /// The same composer over the transport of `setup` in place of the
    /// fault-free one.
    pub fn with_setup(self, setup: TwoPhase) -> Self {
        ProbingComposer { setup, ..self }
    }
}

impl Composer for ProbingComposer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn compose(
        &mut self,
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
    ) -> ComposeOutcome {
        compose_with_setup(
            system,
            board,
            request,
            now,
            &self.config,
            (self.hop_selection, self.final_selection, self.budget),
            &mut self.setup,
            &mut self.rng,
            &mut self.scratch,
        )
    }

    /// A fixed probe budget leaves no ratio to tune.
    fn set_probing_ratio(&mut self, alpha: f64) {
        if self.budget.is_none() {
            self.config.probing_ratio = alpha.clamp(0.0, 1.0);
        }
    }

    fn probing_ratio(&self) -> Option<f64> {
        self.budget.is_none().then_some(self.config.probing_ratio)
    }
}

/// The exhaustive-search baseline.
#[derive(Debug, Default)]
pub struct OptimalComposer {
    config: OptimalConfig,
}

impl OptimalComposer {
    /// Creates an optimal composer.
    pub fn new(config: OptimalConfig) -> Self {
        OptimalComposer { config }
    }
}

impl Composer for OptimalComposer {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn compose(
        &mut self,
        system: &mut StreamSystem,
        _board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
    ) -> ComposeOutcome {
        optimal_compose(system, request, now, &self.config)
    }
}

/// The random baseline.
#[derive(Debug)]
pub struct RandomComposer {
    rng: StdRng,
}

impl RandomComposer {
    /// Creates a random composer.
    pub fn new(seed: u64) -> Self {
        RandomComposer { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Composer for RandomComposer {
    fn name(&self) -> &'static str {
        "random"
    }

    fn compose(
        &mut self,
        system: &mut StreamSystem,
        _board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
    ) -> ComposeOutcome {
        blind_compose(system, request, now, BlindStrategy::Random, &mut self.rng)
    }
}

/// The static baseline.
#[derive(Debug, Default)]
pub struct StaticComposer;

impl StaticComposer {
    /// Creates a static composer.
    pub fn new() -> Self {
        StaticComposer
    }
}

impl Composer for StaticComposer {
    fn name(&self) -> &'static str {
        "static"
    }

    fn compose(
        &mut self,
        system: &mut StreamSystem,
        _board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
    ) -> ComposeOutcome {
        // rng unused by the static strategy
        let mut rng = StdRng::seed_from_u64(0);
        blind_compose(system, request, now, BlindStrategy::Static, &mut rng)
    }
}

/// The algorithms of the paper's evaluation, for driving sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Exhaustive search.
    Optimal,
    /// Adaptive composition probing.
    Acp,
    /// Selective probing (random final pick).
    Sp,
    /// Random probing (random per-hop, optimal final pick).
    Rp,
    /// Blind random.
    Random,
    /// Blind static.
    Static,
}

impl AlgorithmKind {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 6] = [
        AlgorithmKind::Optimal,
        AlgorithmKind::Acp,
        AlgorithmKind::Sp,
        AlgorithmKind::Rp,
        AlgorithmKind::Random,
        AlgorithmKind::Static,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmKind::Optimal => "optimal",
            AlgorithmKind::Acp => "acp",
            AlgorithmKind::Sp => "sp",
            AlgorithmKind::Rp => "rp",
            AlgorithmKind::Random => "random",
            AlgorithmKind::Static => "static",
        }
    }

    /// Instantiates the composer with a probing configuration (used by
    /// the probing algorithms, ignored by the others), the default
    /// exhaustive-search configuration, and an RNG seed.
    pub fn build(self, probing: ProbingConfig, seed: u64) -> Box<dyn Composer> {
        self.build_composer(probing, OptimalConfig::default(), seed, None)
    }

    /// Like [`Self::build`], with an explicit exhaustive-search
    /// configuration for [`AlgorithmKind::Optimal`] and the probing
    /// algorithms' setup transport: `Some((setup_seed, config))` builds
    /// it as [`TwoPhase::new`] does, `None` is [`SetupConfig::default`],
    /// the fault-free transport. The non-probing algorithms commit
    /// directly and ignore the setup configuration either way.
    pub fn build_composer(
        self,
        probing: ProbingConfig,
        optimal: OptimalConfig,
        seed: u64,
        setup: Option<(u64, SetupConfig)>,
    ) -> Box<dyn Composer> {
        let mut composer = match self {
            AlgorithmKind::Optimal => return Box::new(OptimalComposer::new(optimal)),
            AlgorithmKind::Random => return Box::new(RandomComposer::new(seed)),
            AlgorithmKind::Static => return Box::new(StaticComposer::new()),
            AlgorithmKind::Acp => ProbingComposer::new(probing, seed),
            AlgorithmKind::Sp => ProbingComposer::sp(probing, seed),
            AlgorithmKind::Rp => ProbingComposer::rp(probing, seed),
        };
        if let Some((setup_seed, config)) = setup {
            composer = composer.with_setup(TwoPhase::new(setup_seed, config));
        }
        Box::new(composer)
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_state::GlobalStateConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig};

    fn build(seed: u64) -> (StreamSystem, GlobalStateBoard) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 25, neighbors: 4 }, &mut rng);
        let sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig { components_per_node: (2, 3), ..SystemConfig::default() },
            &mut rng,
        );
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        (sys, board)
    }

    fn request(sys: &StreamSystem, id: u64) -> Request {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| !sys.candidates(f).is_empty()).take(3).collect();
        Request {
            id: RequestId(id),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.3, 1.5),
            bandwidth_kbps: 3.0,
            stream_rate_kbps: 64.0,
            tenant: None,
        }
    }

    #[test]
    fn every_algorithm_composes_a_loose_request() {
        for kind in AlgorithmKind::ALL {
            let (mut sys, board) = build(10);
            let req = request(&sys, 1);
            let mut composer = kind.build(ProbingConfig::default(), 42);
            let out = composer.compose(&mut sys, &board, &req, SimTime::ZERO);
            assert!(out.session.is_some(), "{kind} failed a loose request");
            assert_eq!(composer.name(), kind.label());
        }
    }

    #[test]
    fn probing_ratio_plumbs_through() {
        let mut acp = AcpComposer::new(ProbingConfig::default(), 1);
        assert_eq!(acp.probing_ratio(), Some(0.3));
        acp.set_probing_ratio(0.7);
        assert_eq!(acp.probing_ratio(), Some(0.7));
        acp.set_probing_ratio(5.0);
        assert_eq!(acp.probing_ratio(), Some(1.0), "clamped");
        let opt = OptimalComposer::default();
        assert_eq!(opt.probing_ratio(), None);
    }

    /// Builds a denser system where functions have ≥5 candidates, so the
    /// probing ratio actually bites.
    fn build_dense(seed: u64) -> (StreamSystem, GlobalStateBoard) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 300, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 60, neighbors: 4 }, &mut rng);
        let sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        (sys, board)
    }

    #[test]
    fn overhead_ordering_matches_paper() {
        // optimal ≫ acp ≈ rp ≫ random for probe messages on one request.
        let (sys0, board) = build_dense(11);
        let fns: Vec<FunctionId> =
            sys0.registry().ids().filter(|&f| sys0.candidates(f).len() >= 5).take(3).collect();
        assert_eq!(fns.len(), 3, "dense system should have populous functions");
        let req = Request {
            id: RequestId(2),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.3, 1.5),
            bandwidth_kbps: 3.0,
            stream_rate_kbps: 64.0,
            tenant: None,
        };
        let mut msgs = std::collections::HashMap::new();
        for kind in [AlgorithmKind::Optimal, AlgorithmKind::Acp, AlgorithmKind::Rp, AlgorithmKind::Random] {
            let mut sys = sys0.clone();
            let mut composer = kind.build(ProbingConfig::default(), 7);
            let out = composer.compose(&mut sys, &board, &req, SimTime::ZERO);
            msgs.insert(kind, out.stats.probe_messages);
        }
        assert!(msgs[&AlgorithmKind::Optimal] > msgs[&AlgorithmKind::Acp]);
        assert!(msgs[&AlgorithmKind::Acp] > msgs[&AlgorithmKind::Random]);
    }

    #[test]
    fn bcp_composes_with_fixed_budget() {
        let (mut sys, board) = build(13);
        let req = request(&sys, 5);
        let mut bcp = ProbingComposer::bounded(2, ProbingConfig::default(), 3);
        assert_eq!(bcp.name(), "bcp");
        assert_eq!(bcp.budget, Some(2));
        bcp.set_probing_ratio(0.1);
        assert_eq!(bcp.probing_ratio(), None, "a fixed budget has no ratio to tune");
        assert_eq!(bcp.config.probing_ratio, 1.0);
        let out = bcp.compose(&mut sys, &board, &req, SimTime::ZERO);
        assert!(out.session.is_some());
        // Budget 2 per function over a 3-function path: at most 6 probe
        // messages (some may be dropped at arrival).
        assert!(out.stats.probe_messages <= 6, "{} messages", out.stats.probe_messages);
    }

    #[test]
    fn bcp_budget_scales_probe_traffic() {
        let (sys0, board) = build_dense(14);
        let fns: Vec<FunctionId> =
            sys0.registry().ids().filter(|&f| sys0.candidates(f).len() >= 5).take(3).collect();
        let req = Request {
            id: RequestId(6),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.3, 1.5),
            bandwidth_kbps: 3.0,
            stream_rate_kbps: 64.0,
            tenant: None,
        };
        let mut small = ProbingComposer::bounded(1, ProbingConfig::default(), 3);
        let out_small = small.compose(&mut sys0.clone(), &board, &req, SimTime::ZERO);
        let mut large = ProbingComposer::bounded(4, ProbingConfig::default(), 3);
        let out_large = large.compose(&mut sys0.clone(), &board, &req, SimTime::ZERO);
        assert!(out_large.stats.probe_messages > out_small.stats.probe_messages);
    }

    #[test]
    fn acp_equals_optimal_probe_count_at_full_ratio() {
        // At α = 1.0 ACP probes every candidate at every hop, like the
        // exhaustive search (modulo per-hop drops).
        let (sys0, board) = build(12);
        let req = request(&sys0, 3);
        let mut sys = sys0.clone();
        let mut acp = AcpComposer::new(
            ProbingConfig { probing_ratio: 1.0, max_live_probes: usize::MAX, ..ProbingConfig::default() },
            1,
        );
        let acp_out = acp.compose(&mut sys, &board, &req, SimTime::ZERO);
        let mut sys2 = sys0.clone();
        let mut opt = OptimalComposer::default();
        let opt_out = opt.compose(&mut sys2, &board, &req, SimTime::ZERO);
        // ACP spawns at most the exhaustive tree (drops prune subtrees).
        assert!(acp_out.stats.probe_messages <= opt_out.stats.probe_messages);
        assert!(acp_out.session.is_some() && opt_out.session.is_some());
    }
}
