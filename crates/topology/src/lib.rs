//! # acp-topology
//!
//! Network substrate for the ACP stream-processing reproduction:
//!
//! * [`graph`] — an undirected weighted graph with per-link delay,
//!   bandwidth, and loss-rate attributes.
//! * [`inet`] — a degree-based power-law Internet topology generator in the
//!   spirit of Inet-3.0, which the paper uses to create a 3 200-node
//!   IP-layer graph.
//! * [`routing`] — delay-based shortest-path (Dijkstra) routing with
//!   per-source caching, used for both IP-layer and overlay-layer routing.
//! * [`overlay`] — selection of the stream-processing nodes and
//!   construction of the overlay mesh; overlay links map onto IP paths and
//!   multi-hop *virtual links* map onto overlay paths (paper §2.1).
//!
//! # Example
//!
//! ```
//! use acp_topology::{inet::InetConfig, overlay::{Overlay, OverlayConfig}};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
//! let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 20, neighbors: 4 }, &mut rng);
//! assert_eq!(overlay.node_count(), 20);
//! assert!(overlay.is_connected());
//! ```

#![forbid(unsafe_code)]

pub mod graph;
pub mod inet;
pub mod overlay;
pub mod routing;

pub use graph::{EdgeId, Graph, LinkProps, NodeId};
pub use inet::InetConfig;
pub use overlay::{
    Overlay, OverlayConfig, OverlayLinkId, OverlayNodeId, OverlayPath, PairHasher, PathCacheStats,
    SharedPath,
};
pub use routing::{IpPath, RoutingTable};
