//! Reachability: ancestor/descendant sets and narrow-waist values.
//!
//! The narrow-waist value `nw(v) = |V| − |anc(v)| − |des(v)| − 1` (§6.1)
//! counts the nodes order-independent of `v`; the incremental scheduler
//! uses low-NW nodes as natural cut points.

use super::bitset::BitSet;
use super::topo::topo_order;
use crate::graph::NodeId;
use crate::view::GraphView;

/// Precomputed transitive reachability over a graph snapshot.
#[derive(Debug, Clone)]
pub struct Reachability {
    anc: Vec<BitSet>,
    des: Vec<BitSet>,
    alive: usize,
    capacity: usize,
}

impl Reachability {
    /// Computes ancestor and descendant bitsets for every live node.
    ///
    /// Runs in `O(V · E / 64)` via DP over a topological order.
    pub fn compute<G: GraphView>(g: &G) -> Self {
        let cap = g.capacity();
        let order = topo_order(g);
        let mut anc = vec![BitSet::new(cap); cap];
        let mut des = vec![BitSet::new(cap); cap];
        // A pin group's side, taken in once per group: the union over
        // its inputs (for a merge's ancestors) or its merges (for an
        // input's descendants), built where the first member needs it,
        // when every node of the other side is final.
        let pins = g.pins();
        let absorb = |u: &mut BitSet, sets: &[BitSet], nodes: &[NodeId]| {
            for &p in nodes {
                u.union_with(&sets[p.index()]);
                u.insert(p.index());
            }
        };
        let side = |sets: &[BitSet], nodes: &[NodeId]| {
            let mut u = BitSet::new(cap);
            absorb(&mut u, sets, nodes);
            u
        };
        let mut group_anc: Vec<Option<BitSet>> = vec![None; pins.groups().len()];
        let mut group_des = group_anc.clone();
        // Raw neighbour slices throughout: unions are idempotent, so
        // per-edge duplicates cannot change the result.
        for &v in &order {
            // anc(v) = union over preds p of anc(p) ∪ {p}
            let n = g.node(v);
            let mut a = side(&anc, n.inputs());
            absorb(&mut a, &anc, n.keepalive());
            for p in pins.of(v).iter().filter(|p| p.merge) {
                let k = p.group as usize;
                let group = group_anc[k].get_or_insert_with(|| side(&anc, pins.group(p.group).inputs()));
                a.union_with(group);
            }
            anc[v.index()] = a;
        }
        for &v in order.iter().rev() {
            let mut d = side(&des, g.node(v).succs());
            for p in pins.of(v).iter().filter(|p| !p.merge) {
                let k = p.group as usize;
                let group = group_des[k].get_or_insert_with(|| side(&des, pins.group(p.group).merges()));
                d.union_with(group);
            }
            des[v.index()] = d;
        }
        Reachability { anc, des, alive: g.len(), capacity: cap }
    }

    /// Ancestors of `v` (`G.anc(v)`), as a bitset over node indices.
    #[inline]
    pub fn ancestors(&self, v: NodeId) -> &BitSet {
        &self.anc[v.index()]
    }

    /// Descendants of `v` (`G.des(v)`).
    #[inline]
    pub fn descendants(&self, v: NodeId) -> &BitSet {
        &self.des[v.index()]
    }

    /// Whether `a` can reach `b` through directed edges.
    #[inline]
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.des[a.index()].contains(b.index())
    }

    /// Narrow-waist value `nw(v)` (§6.1).
    #[inline]
    pub fn narrow_waist(&self, v: NodeId) -> usize {
        self.alive
            .saturating_sub(self.anc[v.index()].count())
            .saturating_sub(self.des[v.index()].count())
            .saturating_sub(1)
    }

    /// Bit capacity (indexable range) of the stored sets.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Ancestors of `v` computed on demand (no precomputation), as node ids.
pub fn ancestors_of<G: GraphView>(g: &G, v: NodeId) -> Vec<NodeId> {
    let mut seen = BitSet::new(g.capacity());
    let mut stack = g.pre_all(v);
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        if seen.contains(u.index()) {
            continue;
        }
        seen.insert(u.index());
        out.push(u);
        stack.extend(g.pre_all(u));
    }
    out.sort_unstable();
    out
}

/// Descendants of `v` computed on demand, as node ids.
pub fn descendants_of<G: GraphView>(g: &G, v: NodeId) -> Vec<NodeId> {
    let mut seen = BitSet::new(g.capacity());
    let mut stack = g.suc(v);
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        if seen.contains(u.index()) {
            continue;
        }
        seen.insert(u.index());
        out.push(u);
        stack.extend(g.suc(u));
    }
    out.sort_unstable();
    out
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

    /// x -> a -> c; x -> b -> c; plus an independent chain y -> z.
    fn fixture() -> (Graph, [NodeId; 6]) {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        let y = g.add_input(InputKind::Activation, meta(), "y");
        let z = g.add(OpKind::Unary(UnaryKind::Relu), &[y]).unwrap();
        (g, [x, a, b, c, y, z])
    }

    #[test]
    fn ancestors_descendants() {
        let (g, [x, a, b, c, y, z]) = fixture();
        let r = Reachability::compute(&g);
        assert!(r.reaches(x, c));
        assert!(!r.reaches(c, x));
        assert!(!r.reaches(x, z));
        assert_eq!(r.ancestors(c).count(), 3);
        assert_eq!(r.descendants(x).count(), 3);
        assert_eq!(r.descendants(y).count(), 1);
        assert_eq!(ancestors_of(&g, c), vec![x, a, b]);
        assert_eq!(descendants_of(&g, x), vec![a, b, c]);
    }

    #[test]
    fn narrow_waist_values() {
        let (g, [x, a, _b, c, y, z]) = fixture();
        let r = Reachability::compute(&g);
        // x: 6 nodes total, 0 ancestors, 3 descendants -> nw = 2 (y, z).
        assert_eq!(r.narrow_waist(x), 2);
        // a: 1 ancestor (x), 1 descendant (c) -> nw = 3 (b, y, z).
        assert_eq!(r.narrow_waist(a), 3);
        assert_eq!(r.narrow_waist(c), 2);
        // z: 1 ancestor -> nw = 4.
        assert_eq!(r.narrow_waist(z), 4);
        let _ = y;
    }

    #[test]
    fn chain_has_zero_waists() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let r = Reachability::compute(&g);
        assert_eq!(r.narrow_waist(x), 0);
        assert_eq!(r.narrow_waist(a), 0);
        assert_eq!(r.narrow_waist(b), 0);
    }
}
