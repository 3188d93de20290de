//! Narrow-waist graph partitioning (`GraphPartition` of Algorithm 2).
//!
//! Nodes with `nw(v) ≤ 1` are near-articulation points of the
//! scheduling problem: almost every other node is ordered relative to
//! them, so cutting the window there splits it into pieces that can be
//! scheduled independently with bounded loss (§6.1 of the paper).

use crate::task::{Csr, PinRows};
use crate::workspace::{ReadyRanks, Workspace};
use magis_graph::GraphView;
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
    let window: Vec<NodeId> = set.iter().copied().collect();
    partition_window(g, &window, &mut Workspace::new(g))
}

/// [`partition`] of `window` (ascending id) on the caller's scratch:
/// the one partitioner, behind the search and the public wrapper alike.
pub(crate) fn partition_window(g: &Graph, window: &[NodeId], ws: &mut Workspace) -> Vec<Vec<NodeId>> {
    // The window's own adjacency, from one pass over the graph's nodes;
    // everything below runs on it, in window-local indices (index order
    // is id order).
    ws.index(window.iter().copied());
    let n = window.len();
    let mut preds = Csr::new();
    for &v in window {
        let node = g.node(v);
        let deps = node.inputs().iter().chain(node.keepalive());
        preds.push_row(deps.filter_map(|&p| ws.local(p)));
    }
    let succs = preds.transposed(n);
    let pins = PinRows::new(g, ws, n);

    let mut pieces = Vec::new();
    // A merge waits on each of its groups as on one more predecessor.
    let orders = |k: &&usize| pins.orders(**k);
    let mut indeg: Vec<usize> =
        (0..n).map(|i| preds[i].len() + pins.merge_of(i).iter().filter(orders).count()).collect();
    let mut waiting: Vec<usize> = pins.inputs.iter().map(<[usize]>::len).collect();
    let mut walked = vec![false; waiting.len()];
    let mut ready = ReadyRanks::new(n);
    let (mut seen, mut pos) = (vec![false; n], vec![0; n]);
    let (mut stack, mut order) = (Vec::new(), Vec::new());
    // Weakly connected components by lowest id first.
    for seed in 0..n {
        if seen[seed] {
            continue;
        }
        // Flood fill, handing the component's sources to Kahn. A pin
        // group's members are all one component's, walked once.
        seen[seed] = true;
        stack.push(seed);
        while let Some(i) = stack.pop() {
            if indeg[i] == 0 {
                ready.push(i);
            }
            for &u in preds[i].iter().chain(&succs[i]) {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
            for &k in pins.input_of(i).iter().chain(pins.merge_of(i)).filter(orders) {
                if !std::mem::replace(&mut walked[k], true) {
                    for &u in pins.inputs[k].iter().chain(&pins.merges[k]) {
                        if !seen[u] {
                            seen[u] = true;
                            stack.push(u);
                        }
                    }
                }
            }
        }
        // Min-id topological order; `pos` is a member's place in it.
        order.clear();
        while let Some(i) = ready.pop() {
            pos[i] = order.len();
            order.push(i);
            let mut release = |s: usize| {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            };
            succs[i].iter().for_each(|&s| release(s));
            for &k in pins.input_of(i) {
                waiting[k] -= 1;
                if waiting[k] == 0 {
                    pins.merges[k].iter().for_each(|&m| release(m));
                }
            }
        }
        // Cut after every narrow waist that is not the component's end.
        let nw = component_narrow_waists(&order, &pos, &preds, &succs, &pins);
        let mut cur = Vec::new();
        for (i, &v) in order.iter().enumerate() {
            cur.push(window[v]);
            let last = i + 1 == order.len();
            if !last && nw[i] <= CUT_NW && cur.len() > 1 {
                pieces.push(std::mem::take(&mut cur));
            }
        }
        pieces.push(cur);
    }
    pieces
}

/// Narrow-waist value of every node of the component (aligned with
/// `order`, `pos` the inverse), counting only ancestors/descendants
/// inside it, on two flat `n × words` bit arrays.
fn component_narrow_waists(
    order: &[usize],
    pos: &[usize],
    preds: &Csr,
    succs: &Csr,
    pins: &PinRows,
) -> Vec<usize> {
    let n = order.len();
    let words = n.div_ceil(64);
    let (mut anc, mut des) = (vec![0u64; n * words], vec![0u64; n * words]);
    // Row `dst` takes in row `src` and `src` itself.
    let absorb = |bits: &mut [u64], dst: usize, src: usize| {
        for w in 0..words {
            bits[dst * words + w] |= bits[src * words + w];
        }
        bits[dst * words + src / 64] |= 1 << (src % 64);
    };
    // A pin group's side as one row, built where its first member needs
    // it (every node of the other side is final by then) and OR'd into
    // each member of this side.
    let mut side: Vec<Option<Vec<u64>>> = vec![None; pins.inputs.len()];
    let take_side = |bits: &mut [u64], i: usize, k: usize, members: &[usize], side: &mut [Option<Vec<u64>>]| {
        let row = side[k].get_or_insert_with(|| {
            let mut row = vec![0u64; words];
            for &u in members {
                let p = pos[u];
                row.iter_mut().zip(&bits[p * words..][..words]).for_each(|(r, b)| *r |= b);
                row[p / 64] |= 1 << (p % 64);
            }
            row
        });
        bits[i * words..][..words].iter_mut().zip(row.iter()).for_each(|(b, r)| *b |= r);
    };
    for (i, &v) in order.iter().enumerate() {
        preds[v].iter().for_each(|&p| absorb(&mut anc, i, pos[p]));
        for &k in pins.merge_of(v) {
            take_side(&mut anc, i, k, &pins.inputs[k], &mut side);
        }
    }
    side.iter_mut().for_each(|s| *s = None);
    for (i, &v) in order.iter().enumerate().rev() {
        succs[v].iter().for_each(|&s| absorb(&mut des, i, pos[s]));
        for &k in pins.input_of(v) {
            take_side(&mut des, i, k, &pins.merges[k], &mut side);
        }
    }
    let ones = |bits: &[u64], i: usize| -> usize {
        bits[i * words..][..words].iter().map(|w| w.count_ones() as usize).sum()
    };
    (0..n).map(|i| n - ones(&anc, i) - ones(&des, i) - 1).collect()
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
