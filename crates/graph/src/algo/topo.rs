//! Topological orders over computation graphs and node subsets.
//!
//! Generic over [`GraphView`] so schedulers can run on a
//! [`Graph`](crate::graph::Graph) or a
//! mid-transaction [`GraphTxn`](crate::txn::GraphTxn) alike.

use crate::graph::NodeId;
use crate::pins::PinCounts;
use crate::view::GraphView;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Deterministic topological order of all live nodes (Kahn's algorithm
/// with a min-id tie-break). A pin group is read as its pairs: its
/// merges become ready with its last input.
///
/// If the graph has a cycle the returned order is shorter than
/// [`GraphView::len`]; [`Graph::validate`](crate::graph::Graph::validate)
/// relies on this.
pub fn topo_order<G: GraphView>(g: &G) -> Vec<NodeId> {
    let mut indeg = vec![0usize; g.capacity()];
    for v in g.node_ids() {
        let n = g.node(v);
        indeg[v.index()] = n.inputs().len() + n.keepalive().len();
    }
    let pins = g.pins();
    let mut groups = PinCounts::new(pins, |_| true, |m| indeg[m.index()] += 1);
    let mut heap: BinaryHeap<Reverse<NodeId>> =
        g.node_ids().filter(|v| indeg[v.index()] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(g.len());
    let release = |indeg: &mut [usize], heap: &mut BinaryHeap<_>, s: NodeId| {
        indeg[s.index()] -= 1;
        if indeg[s.index()] == 0 {
            heap.push(Reverse(s));
        }
    };
    while let Some(Reverse(v)) = heap.pop() {
        order.push(v);
        // Raw successor list: one entry per edge, so each occurrence
        // decrements the in-degree exactly once.
        for &s in g.node(v).succs() {
            release(&mut indeg, &mut heap, s);
        }
        groups.ran(pins, v, |k| {
            pins.group(k).merges().iter().for_each(|&m| release(&mut indeg, &mut heap, m));
        });
    }
    order
}

/// Topological order of the sub-graph induced by `set` (edges with both
/// endpoints in `set`).
pub fn topo_order_of<G: GraphView>(g: &G, set: &BTreeSet<NodeId>) -> Vec<NodeId> {
    // Dense membership + in-degree tables keyed by slot, so the edge
    // scans below avoid per-edge set lookups. In-degree is offset by 1
    // to double as the membership flag (0 = outside `set`).
    let mut indeg = vec![0usize; g.capacity()];
    for &v in set {
        indeg[v.index()] = 1;
    }
    for &v in set {
        let n = g.node(v);
        indeg[v.index()] += n
            .inputs()
            .iter()
            .chain(n.keepalive())
            .filter(|p| indeg[p.index()] != 0)
            .count();
    }
    let pins = g.pins();
    let inside = |v: NodeId| set.contains(&v);
    let mut groups = PinCounts::new(pins, inside, |m| {
        if inside(m) {
            indeg[m.index()] += 1;
        }
    });
    let mut heap: BinaryHeap<Reverse<NodeId>> =
        set.iter().copied().filter(|v| indeg[v.index()] == 1).map(Reverse).collect();
    let mut order = Vec::with_capacity(set.len());
    let release = |indeg: &mut [usize], heap: &mut BinaryHeap<_>, s: NodeId| {
        if indeg[s.index()] == 0 {
            return;
        }
        indeg[s.index()] -= 1;
        if indeg[s.index()] == 1 {
            heap.push(Reverse(s));
        }
    };
    while let Some(Reverse(v)) = heap.pop() {
        order.push(v);
        for &s in g.node(v).succs() {
            release(&mut indeg, &mut heap, s);
        }
        groups.ran(pins, v, |k| {
            pins.group(k).merges().iter().for_each(|&m| release(&mut indeg, &mut heap, m));
        });
    }
    order
}

/// Checks that `order` is a valid topological order of all of `g`'s
/// live nodes: a permutation where every edge points forward.
pub fn is_topo_order<G: GraphView>(g: &G, order: &[NodeId]) -> bool {
    if order.len() != g.len() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.capacity()];
    for (i, &v) in order.iter().enumerate() {
        if !g.contains(v) || pos[v.index()] != usize::MAX {
            return false;
        }
        pos[v.index()] = i;
    }
    for v in g.node_ids() {
        let n = g.node(v);
        for p in n.inputs().iter().chain(n.keepalive()) {
            if pos[p.index()] >= pos[v.index()] {
                return false;
            }
        }
    }
    // A pin group: its last input before its first merge.
    g.pins().groups().iter().all(|group| {
        let last_input = group.inputs().iter().map(|u| pos[u.index()]).max();
        let first_merge = group.merges().iter().map(|m| pos[m.index()]).min();
        last_input < first_merge
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2, 2], DType::F32)
    }

    #[test]
    fn diamond_order_valid() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        let order = topo_order(&g);
        assert!(is_topo_order(&g, &order));
        assert_eq!(order[0], x);
        assert_eq!(order[3], c);
    }

    #[test]
    fn subset_order() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[a]).unwrap();
        let set: BTreeSet<NodeId> = [a, b].into_iter().collect();
        let order = topo_order_of(&g, &set);
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn duplicate_edge_multiplicity() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let sq = g.add(OpKind::Binary(BinaryKind::Mul), &[x, x]).unwrap();
        let order = topo_order(&g);
        assert_eq!(order, vec![x, sq]);
        assert!(is_topo_order(&g, &order));
    }

    #[test]
    fn bad_orders_rejected() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        assert!(!is_topo_order(&g, &[a, x]));
        assert!(!is_topo_order(&g, &[x]));
        assert!(!is_topo_order(&g, &[x, x]));
    }
}
