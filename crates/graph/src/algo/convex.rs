//! Convexity of node sets (constraint (2) of F-Trans validity, §4.2).
//!
//! A set `S` is convex in `G` when no directed path leaves `S` and
//! re-enters it: equivalently, `G.inps(S) ∩ ⋃_{v∈G.outs(S)} G.des(v) = ∅`.

use super::bitset::BitSet;
use crate::graph::NodeId;
use crate::view::GraphView;

/// Tests whether a node set is convex. `members` lists the set and
/// `in_set` holds its dense membership marks (exactly the members'
/// slots set, see [`BitSet::of_nodes`]).
///
/// Runs a forward search from every edge that exits the set; if the
/// search re-enters it, some outside node sits on a path between two
/// members and the set is not convex. Walks raw successor lists — the
/// verdict is a reachability fact, so duplicate edges and visiting
/// order cannot change it.
pub fn is_convex<G: GraphView>(
    g: &G,
    members: impl IntoIterator<Item = NodeId>,
    in_set: &BitSet,
) -> bool {
    let mut seen = BitSet::new(g.capacity());
    let mut stack: Vec<NodeId> = Vec::new();
    for v in members {
        for &s in g.node(v).succs() {
            if !in_set.contains(s.index()) && !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    while let Some(v) = stack.pop() {
        for &s in g.node(v).succs() {
            if in_set.contains(s.index()) {
                return false;
            }
            if !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], DType::F32)
    }

    fn convex(g: &Graph, set: &[NodeId]) -> bool {
        is_convex(g, set.iter().copied(), &BitSet::of_nodes(g.capacity(), set))
    }

    #[test]
    fn chain_prefixes_convex() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let c = g.add(OpKind::Unary(UnaryKind::Relu), &[b]).unwrap();
        assert!(convex(&g, &[a, b]));
        assert!(convex(&g, &[x, a, b, c]));
        // Gap in a chain: path a -> b -> c with b outside.
        assert!(!convex(&g, &[a, c]));
    }

    #[test]
    fn diamond_half_with_join_not_convex() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        // {x, a, c} skips b but x -> b -> c re-enters: not convex.
        assert!(!convex(&g, &[x, a, c]));
        // The full diamond is convex; each branch alone is convex.
        assert!(convex(&g, &[x, a, b, c]));
        assert!(convex(&g, &[a]));
        assert!(convex(&g, &[a, b]));
    }

    #[test]
    fn empty_set_is_convex() {
        let g = Graph::new();
        assert!(convex(&g, &[]));
    }
}
