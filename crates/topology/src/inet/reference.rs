use rand::Rng;

use super::InetConfig;
use crate::graph::{Graph, NodeId};

pub fn generate<R: Rng + ?Sized>(config: &InetConfig, rng: &mut R) -> Graph {
    let degrees = config.sample_degree_sequence(rng);
    let mut graph = Graph::new(config.nodes);
    let mut stubs: Vec<i64> = degrees.iter().map(|&d| d as i64).collect();
    for i in 1..config.nodes {
        let total: i64 = stubs[..i].iter().map(|&s| s.max(1)).sum();
        let mut pick = rng.gen_range(0..total);
        let mut target = 0usize;
        for (j, &s) in stubs[..i].iter().enumerate() {
            let w = s.max(1);
            if pick < w {
                target = j;
                break;
            }
            pick -= w;
        }
        graph.add_edge(NodeId(i as u32), NodeId(target as u32), config.sample_props(rng));
        stubs[i] -= 1;
        stubs[target] -= 1;
    }
    let mut open: Vec<usize> = (0..config.nodes).filter(|&i| stubs[i] > 0).collect();
    let mut retries = 0usize;
    let max_retries = 20 * config.nodes;
    while open.len() > 1 && retries < max_retries {
        let total: i64 = open.iter().map(|&i| stubs[i]).sum();
        let a = weighted_pick(&open, &stubs, total, rng);
        let b = weighted_pick(&open, &stubs, total, rng);
        if a == b || graph.has_edge(NodeId(a as u32), NodeId(b as u32)) {
            retries += 1;
            continue;
        }
        graph.add_edge(NodeId(a as u32), NodeId(b as u32), config.sample_props(rng));
        stubs[a] -= 1;
        stubs[b] -= 1;
        open.retain(|&i| stubs[i] > 0);
    }
    graph
}

fn weighted_pick<R: Rng + ?Sized>(open: &[usize], stubs: &[i64], total: i64, rng: &mut R) -> usize {
    let mut pick = rng.gen_range(0..total.max(1));
    for &i in open {
        if pick < stubs[i] {
            return i;
        }
        pick -= stubs[i];
    }
    *open.last().expect("open list is non-empty")
}
