//! Transient reservation leases (§3.3 step 2, footnote 7): the ledger
//! ([`LeaseStats`]), the directory recording *where* leases live, and
//! every lease operation of [`StreamSystem`].
//!
//! The leases themselves sit in per-node and per-link vectors — they are
//! summed into availability in vector order, so their f64 bracketing is
//! part of the digest contract and stays exactly as it was. The
//! [`LeaseDirectory`] is a pure index over those vectors: which sites a
//! request holds leases on, and which sites hold any lease at all. A
//! request's leases sit on the handful of nodes and links it probed, so
//! release, commit and the expiry sweep visit those sites and nothing
//! else; no lease operation walks the node or link tables.
//!
//! # Exactness
//!
//! The directory is **exact** at every public-API boundary: `(r, s)` is
//! recorded iff request `r` holds at least one lease on site `s`, and
//! `s` is live iff it holds at least one lease. Every path that removes
//! leases — release by request, component or path, expiry, fail-stop of
//! a node or link, component crash, promotion on commit or splice —
//! settles the rows of the sites it touched before returning. The
//! auditor recomputes the directory by full scan and reports any drift
//! as `LeaseDirectoryMismatch`.
//!
//! # Order
//!
//! [`Site`] orders nodes before links and ascending by index within
//! each — the order a scan of the node table and then the link table
//! meets them in. Sweeps walk sites in that order and apply to each the
//! order-preserving `retain` such a scan would, so version bumps, the
//! surviving leases' vector order (hence every f64 sum over them) and
//! [`LeaseStats`] come out bit-identical to a full scan's.

use std::collections::BTreeMap;

use acp_simcore::SimTime;
use acp_topology::{OverlayLinkId, OverlayPath};

use crate::component::ComponentId;
use crate::node::ReservationKey;
use crate::request::RequestId;
use crate::resources::ResourceVector;
use crate::system::StreamSystem;

/// Running ledger of transient reservation *leases* — one entry per
/// reservation the system ever placed (a path reservation counts one
/// lease per overlay link). Every lease created must eventually be
/// accounted for exactly once: dropped by the expiry sweep, released
/// explicitly, or promoted to a committed residual by a confirmed
/// session. The auditor's reconciliation invariant is
/// `created == expired + released + promoted + live`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases placed (fresh reservations; idempotent refreshes don't
    /// count).
    pub created: u64,
    /// Leases dropped by the reclamation sweep after their expiry.
    pub expired: u64,
    /// Leases released explicitly (losing candidates, failed
    /// compositions, fault teardown).
    pub released: u64,
    /// Leases promoted to committed residuals by a session confirmation.
    pub promoted: u64,
    /// Idempotent refreshes of an already-held lease (footnote 7): a
    /// retry re-probing the same `(request, component)` or
    /// `(request, edge)` key extends the expiry instead of churning a
    /// release/create pair. Not part of the reconciliation equation —
    /// a refresh neither creates nor settles a lease.
    pub reused: u64,
}

impl LeaseStats {
    /// True when every lease ever created is accounted for, given `live`
    /// leases currently outstanding.
    pub fn reconciles(&self, live: u64) -> bool {
        self.created == self.expired + self.released + self.promoted + live
    }
}

/// Key for transient *bandwidth* reservations: one per request per graph
/// edge per overlay link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkReservationKey {
    /// The requesting composition.
    pub request: u64,
    /// Dependency-edge index within the request's function graph.
    pub edge: usize,
}

/// One bandwidth lease on an overlay link.
#[derive(Debug, Clone)]
pub(crate) struct LinkTransient {
    pub(crate) key: LinkReservationKey,
    pub(crate) kbps: f64,
    pub(crate) expires: SimTime,
}

/// A place a lease can live: a stream node or an overlay link, by dense
/// index. The derived order — nodes first, ascending index within each
/// kind — is the order sweeps visit sites in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Site {
    Node(u32),
    Link(u32),
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Site::Node(i) => write!(f, "node {i}"),
            Site::Link(i) => write!(f, "link {i}"),
        }
    }
}

/// An ordered set of indices below a fixed bound: a bitmap under a
/// pyramid of summary bitmaps (bit `j` of a level is set iff word `j` of
/// the level below is non-zero). Insert and remove touch one word per
/// level; finding the next member skips empty stretches a level at a
/// time, so a walk costs O(members), not O(bound). Hand-rolled because a
/// probing request places and drops a lease on every site it touches:
/// a tree set's insert/remove pair per lease costs more on that path
/// than scanning a 400-node system for the leases did (+13 % per
/// composition on the benchmark's `paper_steady`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexSet {
    /// `levels[0]` is the membership bitmap; the last level is one word.
    levels: Vec<Vec<u64>>,
}

impl IndexSet {
    fn with_bound(bound: usize) -> Self {
        let mut levels = Vec::new();
        let mut words = bound.div_ceil(64).max(1);
        loop {
            levels.push(vec![0u64; words]);
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
        IndexSet { levels }
    }

    fn insert(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i >> 6];
            let was_empty = *word == 0;
            *word |= 1 << (i & 63);
            if !was_empty {
                break;
            }
            i >>= 6;
        }
    }

    fn remove(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i >> 6];
            *word &= !(1 << (i & 63));
            if *word != 0 {
                break;
            }
            i >>= 6;
        }
    }

    /// The smallest member at or above `i`.
    fn next_from(&self, mut i: usize) -> Option<usize> {
        let mut k = 0;
        loop {
            let word = *self.levels.get(k)?.get(i >> 6)?;
            let at_or_above = word & (!0u64 << (i & 63));
            if at_or_above != 0 {
                i = (i & !63) | at_or_above.trailing_zeros() as usize;
                while k > 0 {
                    k -= 1;
                    i = (i << 6) | self.levels[k][i].trailing_zeros() as usize;
                }
                return Some(i);
            }
            i = (i >> 6) + 1;
            k += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&i| self.next_from(i + 1))
    }
}

/// Index of where leases live (see the module docs for its invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LeaseDirectory {
    /// Request → the sites it holds a lease on: no duplicates, never
    /// empty, in first-lease order (sorted only when compared or swept).
    /// Unallocated while no lease is live.
    by_request: BTreeMap<u64, Vec<Site>>,
    /// Sites holding at least one lease, as positions in site order:
    /// node `i` at `i`, link `i` at `node_count + i`.
    live: IndexSet,
    node_count: u32,
}

impl LeaseDirectory {
    /// An empty directory over `nodes` node sites and `links` link sites.
    pub(crate) fn new(nodes: usize, links: usize) -> Self {
        LeaseDirectory {
            by_request: BTreeMap::new(),
            live: IndexSet::with_bound(nodes + links),
            node_count: nodes as u32,
        }
    }

    fn position(&self, site: Site) -> usize {
        match site {
            Site::Node(i) => i as usize,
            Site::Link(i) => (self.node_count + i) as usize,
        }
    }

    fn site_at(&self, position: usize) -> Site {
        match (position as u32).checked_sub(self.node_count) {
            None => Site::Node(position as u32),
            Some(link) => Site::Link(link),
        }
    }

    /// Records a freshly placed lease of `request` on `site`. The flags
    /// say whether it is the request's first lease there, and the
    /// site's first lease at all.
    fn record(&mut self, request: u64, site: Site, first_of_request: bool, first_on_site: bool) {
        if first_of_request {
            self.by_request.entry(request).or_default().push(site);
        }
        if first_on_site {
            self.live.insert(self.position(site));
        }
    }

    /// Drops the row saying `request` holds a lease on `site`.
    fn forget(&mut self, request: u64, site: Site) {
        if let Some(sites) = self.by_request.get_mut(&request) {
            sites.retain(|&s| s != site);
            if sites.is_empty() {
                self.by_request.remove(&request);
            }
        }
    }

    /// Takes `site` out of the live set: its last lease is gone.
    fn retire(&mut self, site: Site) {
        self.live.remove(self.position(site));
    }

    /// The sites `request` holds leases on, ascending.
    fn sites_of(&self, request: u64) -> Vec<Site> {
        let mut sites = self.by_request.get(&request).cloned().unwrap_or_default();
        sites.sort_unstable();
        sites
    }

    /// The next live site after `after` (the first for `None`).
    /// Cursor-style so a sweep can retire sites as it goes.
    fn next_live(&self, after: Option<Site>) -> Option<Site> {
        let from = after.map_or(0, |site| self.position(site) + 1);
        self.live.next_from(from).map(|position| self.site_at(position))
    }

    fn live_sites(&self) -> impl Iterator<Item = Site> + '_ {
        self.live.iter().map(|position| self.site_at(position))
    }

    /// The same index with every request's sites in ascending order —
    /// the form two directories are compared in.
    fn normalized(mut self) -> Self {
        for sites in self.by_request.values_mut() {
            sites.sort_unstable();
        }
        self
    }
}

impl StreamSystem {
    // ------------------------------------------------------------------
    // Placing and refreshing leases
    // ------------------------------------------------------------------

    /// Transiently reserves the end-system resources `amount` for
    /// `(request, component)` on the component's node until `expires`.
    /// Idempotent per key. Returns `false` when resources are missing.
    pub fn reserve_component_transient(
        &mut self,
        request: RequestId,
        component: ComponentId,
        amount: ResourceVector,
        expires: SimTime,
    ) -> bool {
        let key = ReservationKey { request: request.0, component };
        let i = component.node.index();
        let node = &mut self.nodes[i];
        // An idempotent re-reservation only refreshes the expiry — no
        // observable availability change, so the version stays put.
        let before = node.transient_count();
        let ok = node.reserve_transient(key, amount, expires);
        if ok && node.transient_count() != before {
            let first_of_request = node.transient_requests().filter(|&r| r == request.0).count() == 1;
            self.leases.record(request.0, Site::Node(i as u32), first_of_request, before == 0);
            self.lease_stats.created += 1;
            self.node_versions[i] += 1;
        } else if ok {
            self.lease_stats.reused += 1;
        }
        ok
    }

    /// Transiently reserves `kbps` along every overlay link of `path` for
    /// the request's graph edge `edge`. All-or-nothing; idempotent per
    /// `(request, edge)` on each link. Returns `false` on insufficient
    /// bandwidth (nothing is reserved then).
    pub fn reserve_path_transient(
        &mut self,
        request: RequestId,
        edge: usize,
        path: &OverlayPath,
        kbps: f64,
        expires: SimTime,
    ) -> bool {
        let key = LinkReservationKey { request: request.0, edge };
        // Feasibility first (links not already holding this key must fit).
        for &l in &path.links {
            let state = &self.links[l.index()];
            if state.transient.iter().any(|t| t.key == key) {
                continue;
            }
            if state.available() < kbps {
                return false;
            }
        }
        for &l in &path.links {
            let i = l.index();
            let state = &mut self.links[i];
            if let Some(existing) = state.transient.iter_mut().find(|t| t.key == key) {
                if expires > existing.expires {
                    existing.expires = expires;
                }
                self.lease_stats.reused += 1;
            } else {
                let first_of_request = !state.transient.iter().any(|t| t.key.request == request.0);
                state.transient.push(LinkTransient { key, kbps, expires });
                let first_on_site = state.transient.len() == 1;
                self.leases.record(request.0, Site::Link(i as u32), first_of_request, first_on_site);
                self.lease_stats.created += 1;
                self.link_versions[i] += 1;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Removing leases
    // ------------------------------------------------------------------

    /// Releases **all** transient reservations belonging to `request`
    /// (dropped probes, failed compositions, the head of every commit).
    /// Visits exactly the sites the request holds leases on. Returns
    /// the number of leases released.
    pub fn release_request_transients(&mut self, request: RequestId) -> usize {
        let Some(mut sites) = self.leases.by_request.remove(&request.0) else {
            return 0;
        };
        sites.sort_unstable();
        let mut dropped = 0;
        for site in sites {
            let d = match site {
                Site::Node(i) => self.nodes[i as usize].release_request_transients(request.0),
                Site::Link(i) => self.links[i as usize].drop_leases(|t| t.key.request == request.0),
            };
            if d > 0 {
                self.touch_site(site);
            }
            if self.site_lease_count(site) == 0 {
                self.leases.retire(site);
            }
            dropped += d;
        }
        self.lease_stats.released += dropped as u64;
        dropped
    }

    /// Releases the transient reservation for `(request, component)`.
    pub fn release_component_transient(&mut self, request: RequestId, component: ComponentId) {
        let key = ReservationKey { request: request.0, component };
        let i = component.node.index();
        let site = Site::Node(i as u32);
        let released =
            self.remove_at(site, |sys| usize::from(sys.nodes[i].release_transient(key).is_some()));
        if released > 0 {
            self.lease_stats.released += 1;
            self.touch_site(site);
        }
    }

    /// Releases all transient bandwidth held by `(request, edge)`.
    pub fn release_path_transient(&mut self, request: RequestId, edge: usize) {
        let key = LinkReservationKey { request: request.0, edge };
        for site in self.leases.sites_of(request.0) {
            let Site::Link(i) = site else { continue };
            let released = self.remove_at(site, |sys| sys.links[i as usize].drop_leases(|t| t.key == key));
            if released > 0 {
                self.lease_stats.released += released as u64;
                self.touch_site(site);
            }
        }
    }

    /// Drops every transient reservation (node and link) that expired at
    /// or before `now`, visiting only the sites that hold leases — node
    /// sites ascending, then link sites ascending. Returns the number
    /// dropped.
    pub fn expire_transients(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        let mut cursor = self.leases.next_live(None);
        while let Some(site) = cursor {
            cursor = self.leases.next_live(Some(site));
            if self.site_expired_count(site, now) == 0 {
                continue;
            }
            dropped += self.remove_at(site, |sys| match site {
                Site::Node(i) => sys.nodes[i as usize].expire_transients(now),
                Site::Link(i) => sys.links[i as usize].drop_leases(|t| t.expires <= now),
            });
            self.touch_site(site);
        }
        self.lease_stats.expired += dropped as u64;
        dropped
    }

    /// Re-files `held` leases a confirmation just released as *promoted*:
    /// confirmation is what turns a lease into a committed residual
    /// (§3.3 step 4), while a failed one leaves them counted as released.
    pub(crate) fn promote_released_leases(&mut self, held: usize) {
        self.lease_stats.released -= held as u64;
        self.lease_stats.promoted += held as u64;
    }

    /// Reclaims every lease held *for* a crashed component — a crash
    /// mid-two-phase-setup must not orphan the reservation until the
    /// expiry sweep. The caller owns the node's version bump.
    pub(crate) fn reclaim_component_leases(&mut self, component: ComponentId) {
        let i = component.node.index();
        let reclaimed = self.remove_at(Site::Node(i as u32), |sys| {
            sys.nodes[i].release_component_transients(component)
        });
        self.lease_stats.released += reclaimed as u64;
    }

    /// Strikes every lease on `site` from the ledger (as released) and
    /// the directory. For fail-stop paths, which clear the site's lease
    /// vector wholesale right after and own the version bump.
    pub(crate) fn forget_site_leases(&mut self, site: Site) {
        let requests = self.site_requests(site);
        for &request in &requests {
            self.leases.forget(request, site);
        }
        self.leases.retire(site);
        self.lease_stats.released += requests.len() as u64;
    }

    /// Runs `remove`, which drops some of `site`'s leases and returns how
    /// many, then settles the directory: a request whose last lease on
    /// the site went loses its row, and the site leaves the live set
    /// once empty. Ledger and version bump stay with the caller.
    fn remove_at(&mut self, site: Site, remove: impl FnOnce(&mut Self) -> usize) -> usize {
        let before = self.site_requests(site);
        let removed = remove(self);
        if removed > 0 {
            let after = self.site_requests(site);
            for request in before {
                if !after.contains(&request) {
                    self.leases.forget(request, site);
                }
            }
            if after.is_empty() {
                self.leases.retire(site);
            }
        }
        removed
    }

    fn touch_site(&mut self, site: Site) {
        match site {
            Site::Node(i) => self.node_versions[i as usize] += 1,
            Site::Link(i) => self.link_versions[i as usize] += 1,
        }
    }

    // ------------------------------------------------------------------
    // Per-site reads
    // ------------------------------------------------------------------

    /// The request of every lease on `site`, in lease-vector order.
    fn site_requests(&self, site: Site) -> Vec<u64> {
        match site {
            Site::Node(i) => self.nodes[i as usize].transient_requests().collect(),
            Site::Link(i) => self.links[i as usize].transient.iter().map(|t| t.key.request).collect(),
        }
    }

    fn site_lease_count(&self, site: Site) -> usize {
        match site {
            Site::Node(i) => self.nodes[i as usize].transient_count(),
            Site::Link(i) => self.links[i as usize].transient.len(),
        }
    }

    fn site_expired_count(&self, site: Site, now: SimTime) -> usize {
        match site {
            Site::Node(i) => self.nodes[i as usize].expired_transient_count(now),
            Site::Link(i) => self.link_expired_transient_count(OverlayLinkId(i), now),
        }
    }

    fn site_earliest_expiry(&self, site: Site) -> Option<SimTime> {
        match site {
            Site::Node(i) => self.nodes[i as usize].earliest_transient_expiry(),
            Site::Link(i) => self.links[i as usize].transient.iter().map(|t| t.expires).min(),
        }
    }

    // ------------------------------------------------------------------
    // Ledger and queries
    // ------------------------------------------------------------------

    /// The running lease ledger (see [`LeaseStats`]).
    pub fn lease_stats(&self) -> LeaseStats {
        self.lease_stats
    }

    /// Does nothing: the lease ledger is always kept. Kept only because
    /// the benchmark package, which this crate may not edit, still calls
    /// it.
    pub fn set_lease_accounting(&mut self, _enabled: bool) {}

    /// Transient reservation leases currently outstanding across every
    /// node and overlay link.
    pub fn live_lease_count(&self) -> usize {
        self.leases.live_sites().map(|site| self.site_lease_count(site)).sum()
    }

    /// The earliest expiry among outstanding leases — when the next
    /// reclamation sweep will actually drop something.
    pub fn next_lease_expiry(&self) -> Option<SimTime> {
        self.leases.live_sites().filter_map(|site| self.site_earliest_expiry(site)).min()
    }

    /// Outstanding transient leases on overlay link `l`.
    pub(crate) fn link_transient_count(&self, l: OverlayLinkId) -> usize {
        self.links[l.index()].transient.len()
    }

    /// Outstanding leases on overlay link `l` whose expiry has passed at
    /// `now`.
    pub(crate) fn link_expired_transient_count(&self, l: OverlayLinkId, now: SimTime) -> usize {
        self.links[l.index()].transient.iter().filter(|t| t.expires <= now).count()
    }

    /// Outstanding leases (node and link) held by `request`.
    pub fn request_lease_count(&self, request: RequestId) -> usize {
        let sites = self.leases.by_request.get(&request.0);
        sites
            .into_iter()
            .flatten()
            .map(|&site| self.site_requests(site).iter().filter(|&&r| r == request.0).count())
            .sum()
    }

    /// Request ids holding at least one outstanding lease, sorted and
    /// deduplicated (deterministic audit order).
    pub fn leased_requests(&self) -> Vec<u64> {
        self.leases.by_request.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Full-scan recomputation (auditor and test oracle only)
    // ------------------------------------------------------------------

    /// The directory as a walk over every node and every link derives
    /// it (normalized: each request's sites ascending).
    fn scanned_lease_directory(&self) -> LeaseDirectory {
        let mut scanned = LeaseDirectory::new(self.nodes.len(), self.links.len());
        let sites = (0..self.nodes.len() as u32)
            .map(Site::Node)
            .chain((0..self.links.len() as u32).map(Site::Link));
        for site in sites {
            let mut requests = self.site_requests(site);
            requests.sort_unstable();
            requests.dedup();
            for (n, request) in requests.into_iter().enumerate() {
                scanned.record(request, site, true, n == 0);
            }
        }
        scanned
    }

    /// Every row on which the maintained directory disagrees with the
    /// full-scan recomputation, rendered for the auditor; empty when the
    /// directory is exact.
    pub(crate) fn lease_directory_drift(&self) -> Vec<String> {
        let scanned = self.scanned_lease_directory();
        let kept = self.leases.clone().normalized();
        if scanned == kept {
            return Vec::new();
        }
        let mut rows = Vec::new();
        for (&request, sites) in &kept.by_request {
            if sites.is_empty() {
                rows.push(format!("request {request} has an empty entry"));
            }
            if sites.windows(2).any(|w| w[0] == w[1]) {
                rows.push(format!("request {request} lists a site twice"));
            }
            let found = scanned.by_request.get(&request).map(Vec::as_slice).unwrap_or(&[]);
            for site in sites.iter().filter(|s| !found.contains(s)) {
                rows.push(format!("request {request} is recorded on {site} but holds no lease there"));
            }
        }
        for (&request, found) in &scanned.by_request {
            let sites = kept.by_request.get(&request).map(Vec::as_slice).unwrap_or(&[]);
            for site in found.iter().filter(|s| !sites.contains(s)) {
                rows.push(format!("request {request} holds a lease on {site} that is not recorded"));
            }
        }
        let (kept_live, found_live): (Vec<Site>, Vec<Site>) =
            (kept.live_sites().collect(), scanned.live_sites().collect());
        for site in kept_live.iter().filter(|s| !found_live.contains(s)) {
            rows.push(format!("{site} is in the live set but holds no lease"));
        }
        for site in found_live.iter().filter(|s| !kept_live.contains(s)) {
            rows.push(format!("{site} holds leases but is missing from the live set"));
        }
        rows
    }

    /// Replaces the directory with its full-scan recomputation. An
    /// oracle system that does this before every operation finds leases
    /// the way the pre-directory scans did; property tests compare the
    /// maintained directory's behaviour against it.
    #[doc(hidden)]
    pub fn rescan_lease_directory(&mut self) {
        self.leases = self.scanned_lease_directory();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionRegistry;
    use crate::system::SystemConfig;
    use acp_simcore::SimDuration;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_system(seed: u64, stream_nodes: usize) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::standard(), &SystemConfig::default(), &mut rng)
    }

    #[test]
    fn index_set_walks_members_in_order_across_levels() {
        // 300k indices: three levels (4688 words, 74 words, 2 words → 1).
        let mut set = IndexSet::with_bound(300_000);
        assert!(set.levels.len() >= 3);
        let mut reference = std::collections::BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        for round in 0..4_000 {
            let i = match round % 3 {
                0 => rng.gen_range(0..300_000),
                1 => rng.gen_range(0..200),
                _ => 299_999 - rng.gen_range(0..200usize),
            };
            if rng.gen_range(0..3) == 0 {
                set.remove(i);
                reference.remove(&i);
            } else {
                set.insert(i);
                reference.insert(i);
            }
            if round % 64 == 0 {
                assert!(set.iter().eq(reference.iter().copied()), "round {round}");
                let from = rng.gen_range(0..300_000);
                assert_eq!(set.next_from(from), reference.range(from..).next().copied());
            }
        }
        for i in reference {
            set.remove(i);
        }
        assert_eq!(set, IndexSet::with_bound(300_000), "emptied summaries return to zero");
        assert_eq!(IndexSet::with_bound(0).next_from(0), None);
    }

    #[test]
    fn directory_orders_nodes_before_links_ascending() {
        let mut d = LeaseDirectory::new(10, 3);
        for (request, site) in [
            (7, Site::Link(2)),
            (7, Site::Node(9)),
            (3, Site::Link(0)),
            (7, Site::Node(1)),
            (7, Site::Link(0)),
        ] {
            d.record(request, site, true, true);
        }
        let ascending = [Site::Node(1), Site::Node(9), Site::Link(0), Site::Link(2)];
        assert_eq!(d.sites_of(7), ascending);
        assert!(d.sites_of(5).is_empty());
        assert!(d.live_sites().eq(ascending));
        assert_eq!(d.next_live(Some(Site::Node(9))), Some(Site::Link(0)));
        assert_eq!(d.next_live(Some(Site::Link(2))), None);
        d.forget(3, Site::Link(0));
        assert!(!d.by_request.contains_key(&3), "a request's last row takes its entry along");
        d.forget(7, Site::Node(9));
        d.retire(Site::Node(9));
        assert_eq!(d.sites_of(7), [Site::Node(1), Site::Link(0), Site::Link(2)]);
        assert_eq!(d.next_live(Some(Site::Node(1))), Some(Site::Link(0)));
    }

    /// The pre-directory sweeps, kept as the reference the directory-
    /// backed ones must match bit for bit: visit every node, then every
    /// link, drop what `doomed` names, bump the version of each entity
    /// that lost something.
    fn full_scan_drop(
        sys: &mut StreamSystem,
        doomed_on_node: impl Fn(&mut crate::node::StreamNode) -> usize,
        doomed_on_link: impl Fn(&LinkTransient) -> bool,
    ) -> usize {
        let mut dropped = 0;
        for i in 0..sys.nodes.len() {
            let d = doomed_on_node(&mut sys.nodes[i]);
            if d > 0 {
                sys.node_versions[i] += 1;
            }
            dropped += d;
        }
        for i in 0..sys.links.len() {
            let d = sys.links[i].drop_leases(&doomed_on_link);
            if d > 0 {
                sys.link_versions[i] += 1;
            }
            dropped += d;
        }
        sys.rescan_lease_directory();
        dropped
    }

    fn assert_same_books(sys: &StreamSystem, reference: &StreamSystem, what: &str) {
        assert_eq!(sys.node_versions(), reference.node_versions(), "{what}: node versions");
        assert_eq!(sys.link_versions(), reference.link_versions(), "{what}: link versions");
        assert_eq!(sys.lease_stats(), reference.lease_stats(), "{what}: ledger");
        assert_eq!(sys.leased_requests(), reference.leased_requests(), "{what}: leased requests");
        for i in 0..sys.node_count() as u32 {
            let v = OverlayNodeId(i);
            assert_eq!(sys.node_available(v), reference.node_available(v), "{what}: {v}");
        }
        for i in 0..sys.link_count() as u32 {
            let l = OverlayLinkId(i);
            assert_eq!(
                sys.link_available(l).to_bits(),
                reference.link_available(l).to_bits(),
                "{what}: link {i}"
            );
        }
        assert!(sys.lease_directory_drift().is_empty(), "{what}: {:?}", sys.lease_directory_drift());
    }

    /// Random reserve / release / expire rounds: the directory-backed
    /// sweeps leave versions, ledger and availability exactly where the
    /// full scans they replaced leave a twin system.
    #[test]
    fn sweeps_match_the_full_scans_they_replaced() {
        let mut sys = build_system(21, 24);
        let mut reference = sys.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let components: Vec<ComponentId> = (0..sys.node_count() as u32)
            .flat_map(|i| sys.node(OverlayNodeId(i)).components().map(|c| c.id).collect::<Vec<_>>())
            .collect();
        let mut now = SimTime::ZERO;
        for round in 0..400 {
            let request = RequestId(rng.gen_range(1..12));
            let what = format!("round {round}");
            match rng.gen_range(0..6) {
                0 | 1 => {
                    let c = components[rng.gen_range(0..components.len())];
                    let amount = ResourceVector::new(rng.gen_range(0.1..0.9), rng.gen_range(0.1..3.0));
                    let expires = now + SimDuration::from_secs(rng.gen_range(1..40));
                    let a = sys.reserve_component_transient(request, c, amount, expires);
                    let b = reference.reserve_component_transient(request, c, amount, expires);
                    assert_eq!(a, b, "{what}");
                }
                2 => {
                    let n = sys.node_count() as u32;
                    let (from, to) = (OverlayNodeId(rng.gen_range(0..n)), OverlayNodeId(rng.gen_range(0..n)));
                    let edge = rng.gen_range(0..3);
                    let kbps = rng.gen_range(0.5..4.0);
                    let expires = now + SimDuration::from_secs(rng.gen_range(1..40));
                    if let Some(path) = sys.virtual_path(from, to) {
                        let _ = reference.virtual_path(from, to);
                        let a = sys.reserve_path_transient(request, edge, &path, kbps, expires);
                        let b = reference.reserve_path_transient(request, edge, &path, kbps, expires);
                        assert_eq!(a, b, "{what}");
                    }
                }
                3 => {
                    let a = sys.release_request_transients(request);
                    let b = full_scan_drop(
                        &mut reference,
                        |node| node.release_request_transients(request.0),
                        |t| t.key.request == request.0,
                    );
                    reference.lease_stats.released += b as u64;
                    assert_eq!(a, b, "{what}");
                }
                4 => {
                    let edge = rng.gen_range(0..3);
                    let key = LinkReservationKey { request: request.0, edge };
                    sys.release_path_transient(request, edge);
                    let b = full_scan_drop(&mut reference, |_| 0, |t| t.key == key);
                    reference.lease_stats.released += b as u64;
                }
                _ => {
                    now += SimDuration::from_secs(rng.gen_range(0..15));
                    let a = sys.expire_transients(now);
                    let b = full_scan_drop(
                        &mut reference,
                        |node| node.expire_transients(now),
                        |t| t.expires <= now,
                    );
                    reference.lease_stats.expired += b as u64;
                    assert_eq!(a, b, "{what}");
                }
            }
            assert_same_books(&sys, &reference, &what);
        }
        assert!(sys.lease_stats().created > 100, "the rounds must place leases");
        assert!(sys.lease_stats().expired > 0 && sys.lease_stats().released > 0);
    }

    #[test]
    fn queries_read_the_directory() {
        let mut sys = build_system(22, 20);
        assert_eq!(sys.live_lease_count(), 0);
        assert_eq!(sys.next_lease_expiry(), None);
        let c = sys.node(OverlayNodeId(3)).components().next().expect("hosts components").id;
        let path = sys.virtual_path(OverlayNodeId(0), OverlayNodeId(7)).expect("connected");
        assert!(!path.is_colocated());
        let (early, late) = (SimTime::from_secs(10), SimTime::from_secs(30));
        assert!(sys.reserve_component_transient(RequestId(1), c, ResourceVector::new(0.5, 1.0), late));
        assert!(sys.reserve_path_transient(RequestId(1), 0, &path, 2.0, early));
        assert!(sys.reserve_path_transient(RequestId(2), 0, &path, 2.0, late));
        let hops = path.links.len();
        assert_eq!(sys.request_lease_count(RequestId(1)), 1 + hops);
        assert_eq!(sys.request_lease_count(RequestId(2)), hops);
        assert_eq!(sys.request_lease_count(RequestId(3)), 0);
        assert_eq!(sys.live_lease_count(), 1 + 2 * hops);
        assert_eq!(sys.leased_requests(), [1, 2]);
        assert_eq!(sys.next_lease_expiry(), Some(early));
        assert_eq!(sys.expire_transients(early), hops);
        assert_eq!(sys.leased_requests(), [1, 2], "request 1 keeps its node lease");
        assert_eq!(sys.release_request_transients(RequestId(1)), 1);
        assert_eq!(sys.leased_requests(), [2]);
        assert!(sys.lease_directory_drift().is_empty());
    }
}
