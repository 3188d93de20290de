//! Narrow-waist graph partitioning (`GraphPartition` of Algorithm 2).
//!
//! Nodes with `nw(v) ≤ 1` are near-articulation points of the
//! scheduling problem: almost every other node is ordered relative to
//! them, so cutting the window there splits it into pieces that can be
//! scheduled independently with bounded loss (§6.1 of the paper).

use magis_graph::GraphView;
use magis_graph::algo::topo::topo_order_of;
use magis_graph::algo::weakly_connected_components;
use magis_graph::graph::{Graph, NodeId};
use std::collections::BTreeSet;

/// Maximum narrow-waist value at which a node still qualifies as a cut
/// point (the paper uses `nw(v) ≤ 1`).
pub const CUT_NW: usize = 1;

/// Partitions `set` into independently schedulable pieces.
///
/// Each weakly connected component is ordered topologically and cut
/// after every node whose narrow-waist value *within the component* is
/// at most [`CUT_NW`]. Pieces are returned in a valid execution order
/// (concatenating their schedules yields a topological order of `set`).
pub fn partition(g: &Graph, set: &BTreeSet<NodeId>) -> Vec<Vec<NodeId>> {
    let mut pieces = Vec::new();
    for comp in weakly_connected_components(g, set) {
        let order = topo_order_of(g, &comp);
        if comp.len() <= 2 {
            pieces.push(order);
            continue;
        }
        // Narrow-waist values restricted to the component: build a
        // component-local reachability by counting anc/des inside it.
        let nw = component_narrow_waists(g, &order);
        let mut cur = Vec::new();
        for (i, &v) in order.iter().enumerate() {
            cur.push(v);
            let last = i + 1 == order.len();
            if !last && nw[i] <= CUT_NW && cur.len() > 1 {
                pieces.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            pieces.push(cur);
        }
    }
    pieces
}

/// Narrow-waist value of every node of the component (aligned with
/// `order`), counting only ancestors/descendants inside it.
fn component_narrow_waists(g: &Graph, order: &[NodeId]) -> Vec<usize> {
    let n = order.len();
    // Dense slot→position table: doubles as the membership test, so
    // the bitset merges below walk raw neighbour slices directly.
    let mut pos = vec![usize::MAX; g.capacity()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let words = n.div_ceil(64);
    let mut anc = vec![vec![0u64; words]; n];
    let mut des = vec![vec![0u64; words]; n];
    for (i, &v) in order.iter().enumerate() {
        let node = g.node(v);
        for &p in node.inputs().iter().chain(node.keepalive()) {
            let pi = pos[p.index()];
            if pi == usize::MAX {
                continue;
            }
            let (head, tail) = anc.split_at_mut(i);
            for (w, pw) in tail[0].iter_mut().zip(head[pi].iter()) {
                *w |= pw;
            }
            anc[i][pi / 64] |= 1 << (pi % 64);
        }
    }
    for (i, &v) in order.iter().enumerate().rev() {
        for &s in g.node(v).succs() {
            let si = pos[s.index()];
            if si == usize::MAX {
                continue;
            }
            let (head, tail) = des.split_at_mut(si);
            for (w, sw) in head[i].iter_mut().zip(tail[0].iter()) {
                *w |= sw;
            }
            des[i][si / 64] |= 1 << (si % 64);
        }
    }
    (0..n)
        .map(|i| {
            let a: usize = anc[i].iter().map(|w| w.count_ones() as usize).sum();
            let d: usize = des[i].iter().map(|w| w.count_ones() as usize).sum();
            n - a - d - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    #[test]
    fn chain_splits_at_every_node() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let mut cur = x;
        for _ in 0..5 {
            cur = b.relu(cur);
        }
        let g = b.finish();
        let set: BTreeSet<NodeId> = g.node_ids().collect();
        let pieces = partition(&g, &set);
        // Every node of a chain has nw = 0: pieces of size ≤ 2.
        assert!(pieces.len() >= 3);
        let total: usize = pieces.iter().map(Vec::len).sum();
        assert_eq!(total, g.len());
        // Concatenation is a topological order.
        let cat: Vec<NodeId> = pieces.into_iter().flatten().collect();
        assert!(magis_graph::algo::is_topo_order(&g, &cat));
    }

    #[test]
    fn diamond_cuts_still_compose_validly() {
        // In a 5-node diamond + tail, the branch nodes have nw = 1
        // (each is independent of exactly one node), so the paper's
        // nw ≤ 1 rule may cut between them — the at-most-one-node
        // displacement the heuristic tolerates. What must hold: all
        // nodes covered exactly once and the concatenation is a valid
        // topological order.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let j = b.add_op(a, c);
        let _t = b.relu(j);
        let g = b.finish();
        let set: BTreeSet<NodeId> = g.node_ids().collect();
        let pieces = partition(&g, &set);
        let cat: Vec<NodeId> = pieces.iter().flatten().copied().collect();
        assert_eq!(cat.len(), g.len());
        assert!(magis_graph::algo::is_topo_order(&g, &cat));
    }

    #[test]
    fn wide_fanout_kept_whole() {
        // With 4 parallel branches every interior node has nw = 3 > 1:
        // the fan must stay in a single piece.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let branches: Vec<NodeId> = (0..4).map(|_| b.relu(x)).collect();
        let mut acc = branches[0];
        for &p in &branches[1..] {
            acc = b.add_op(acc, p);
        }
        // `acc` chain nodes also have nw > 1 until the last one.
        let g = b.finish();
        let set: BTreeSet<NodeId> = g.node_ids().collect();
        let pieces = partition(&g, &set);
        let piece = pieces.iter().find(|p| p.contains(&branches[0])).unwrap();
        for br in &branches[1..] {
            assert!(piece.contains(br), "parallel branches stay together");
        }
    }

    #[test]
    fn separate_components_separate_pieces() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let _a = b.relu(x);
        let y = b.input([64], "y");
        let _c = b.relu(y);
        let g = b.finish();
        let set: BTreeSet<NodeId> = g.node_ids().collect();
        let pieces = partition(&g, &set);
        assert_eq!(pieces.len(), 2);
    }
}
