//! Weisfeiler–Lehman-style graph hashing (Algorithm 3, `GraphHash`).
//!
//! Used by the top-level search to filter out duplicate graphs: the
//! paper reports that the hash test removes ~87% of candidate states
//! (Fig. 15). Node labels incorporate the full operator (kind +
//! attributes), output metadata, and the fission cost-repeat, then
//! propagate along edges in topological order; the final digest is a
//! hash of the (order-insensitive) wrapping sum of node digests.

use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn node_label<G: GraphView>(g: &G, v: NodeId) -> u64 {
    let mut h = DefaultHasher::new();
    let n = g.node(v);
    n.op.hash(&mut h);
    n.meta.hash(&mut h);
    n.cost_repeat.hash(&mut h);
    n.alloc_with.is_some().hash(&mut h);
    h.finish()
}

/// Hashes a graph up to node-id renaming.
///
/// Two graphs that differ only in arena numbering (e.g. one built
/// directly and one produced by a rewrite-and-undo sequence) hash
/// equal; graphs with different structure, shapes, attributes or
/// fission multipliers hash differently with overwhelming probability.
pub fn graph_hash<G: GraphView>(g: &G) -> u64 {
    // A node's digest is a function of its predecessors' digests: any
    // topological order yields the same ones, so this is Kahn's
    // algorithm on a plain stack (nodes on or behind a cycle are never
    // ready and stay out of the sum, as with `topo_order`).
    let mut indeg = vec![0usize; g.capacity()];
    let mut ready = Vec::new();
    for v in g.node_ids() {
        let n = g.node(v);
        indeg[v.index()] = n.inputs().len() + n.keepalive().len();
        if indeg[v.index()] == 0 {
            ready.push(v);
        }
    }
    let mut digest = vec![0u64; g.capacity()];
    let mut sum: u64 = 0;
    while let Some(v) = ready.pop() {
        let n = g.node(v);
        let mut h = DefaultHasher::new();
        node_label(g, v).hash(&mut h);
        // Ordered data inputs: operand order is semantically relevant.
        for &p in n.inputs() {
            digest[p.index()].hash(&mut h);
        }
        // Keepalive edges are orderless: combine commutatively.
        let ka: u64 = n.keepalive().iter().fold(0u64, |acc, &p| acc.wrapping_add(digest[p.index()]));
        ka.hash(&mut h);
        let x = h.finish();
        digest[v.index()] = x;
        sum = sum.wrapping_add(x);
        for &s in n.succs() {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    let mut h = DefaultHasher::new();
    sum.hash(&mut h);
    g.len().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta(d: &[u64]) -> TensorMeta {
        TensorMeta::new(d, DType::F32)
    }

    fn chain(unaries: &[UnaryKind]) -> Graph {
        let mut g = Graph::new();
        let mut cur = g.add_input(InputKind::Activation, meta(&[4, 4]), "x");
        for &u in unaries {
            cur = g.add(OpKind::Unary(u), &[cur]).unwrap();
        }
        g
    }

    #[test]
    fn isomorphic_graphs_hash_equal() {
        let g1 = chain(&[UnaryKind::Relu, UnaryKind::Gelu]);
        let g2 = chain(&[UnaryKind::Relu, UnaryKind::Gelu]);
        assert_eq!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn different_ops_hash_differently() {
        let g1 = chain(&[UnaryKind::Relu, UnaryKind::Gelu]);
        let g2 = chain(&[UnaryKind::Gelu, UnaryKind::Relu]);
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn shape_sensitivity() {
        let mut g1 = Graph::new();
        g1.add_input(InputKind::Activation, meta(&[4, 4]), "x");
        let mut g2 = Graph::new();
        g2.add_input(InputKind::Activation, meta(&[4, 8]), "x");
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn rewrite_and_undo_restores_hash() {
        let mut g = chain(&[UnaryKind::Relu]);
        let h0 = graph_hash(&g);
        let x = g.graph_inputs()[0];
        let extra = g.add(OpKind::Unary(UnaryKind::Tanh), &[x]).unwrap();
        assert_ne!(graph_hash(&g), h0);
        g.remove(extra).unwrap();
        assert_eq!(graph_hash(&g), h0);
    }

    #[test]
    fn operand_order_matters() {
        let build = |swap: bool| {
            let mut g = Graph::new();
            let a = g.add_input(InputKind::Activation, meta(&[4, 4]), "a");
            let b = g.add_input(InputKind::Weight, meta(&[4, 4]), "b");
            let (l, r) = if swap { (b, a) } else { (a, b) };
            g.add(OpKind::Binary(BinaryKind::Sub), &[l, r]).unwrap();
            g
        };
        assert_ne!(graph_hash(&build(false)), graph_hash(&build(true)));
    }

    #[test]
    fn cost_repeat_hashes() {
        let mut g1 = chain(&[UnaryKind::Relu]);
        let g2 = g1.clone();
        let n = g1.node_ids().last().unwrap();
        g1.set_cost_repeat(n, 4);
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }
}
