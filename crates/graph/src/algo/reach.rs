//! Reachability: narrow-waist values, and ancestor / descendant sets on
//! demand.
//!
//! The narrow-waist value `nw(v) = |V| − |anc(v)| − |des(v)| − 1` (§6.1)
//! counts the nodes order-independent of `v`; the incremental scheduler
//! uses low-NW nodes as natural cut points.

use super::bitset::BitSet;
use super::topo::topo_order;
use crate::graph::NodeId;
use crate::view::GraphView;

/// Narrow-waist table of a graph snapshot: one `u32` per slot.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// `|anc(v)| + |des(v)|` at slot `v` (0 for a dead slot).
    related: Vec<u32>,
    alive: usize,
}

impl Reachability {
    /// Counts the ancestors and descendants of every live node.
    pub fn compute<G: GraphView>(g: &G) -> Self {
        Self::compute_in_order(g, &topo_order(g))
    }

    /// [`Reachability::compute`] over `order`, a topological order of
    /// `g` that lists every live node once (a schedule of `g` is one).
    ///
    /// Runs in `O(V · E / 64)` via DP over `order`, on one bit row per
    /// slot that the ancestor pass fills and the descendant pass
    /// reuses; only each row's count is kept.
    pub fn compute_in_order<G: GraphView>(g: &G, order: &[NodeId]) -> Self {
        debug_assert_eq!(order.len(), g.len(), "the order lists every live node once");
        let (cap, pins) = (g.capacity(), g.pins());
        let w = cap.div_ceil(64);
        // Row-major: the slots' rows, then one row per pin group side.
        let mut rows = vec![0u64; (cap + pins.groups().len()) * w];
        let (mut row, mut related) = (vec![0u64; w], vec![0u32; cap]);
        for anc in [true, false] {
            // anc(v) = union over preds p of anc(p) ∪ {p}; des(v) the
            // same over succs, in reverse order. A pin group's side is
            // taken in once per group: the union over its inputs (for a
            // merge's ancestors) or its merges (for an input's
            // descendants), built where the first member needs it, when
            // every node of the other side is final. Raw neighbour
            // slices throughout: unions are idempotent, so per-edge
            // duplicates cannot change the result.
            let mut built = vec![false; pins.groups().len()];
            rows[cap * w..].fill(0);
            for i in 0..order.len() {
                let v = order[if anc { i } else { order.len() - 1 - i }];
                let n = g.node(v);
                let direct = if anc { [n.inputs(), n.keepalive()] } else { [n.succs(), &[]] };
                for nodes in direct {
                    or_rows(&rows, w, &mut row, nodes);
                }
                for p in pins.of(v).iter().filter(|p| p.merge == anc) {
                    let (k, group) = (p.group as usize, pins.group(p.group));
                    let (slots, sides) = rows.split_at_mut(cap * w);
                    let side = &mut sides[k * w..(k + 1) * w];
                    if !std::mem::replace(&mut built[k], true) {
                        or_rows(slots, w, side, if anc { group.inputs() } else { group.merges() });
                    }
                    row.iter_mut().zip(&*side).for_each(|(a, b)| *a |= b);
                }
                rows[v.index() * w..][..w].copy_from_slice(&row);
                related[v.index()] += row.iter().map(|x| x.count_ones()).sum::<u32>();
                row.fill(0);
            }
        }
        Reachability { related, alive: g.len() }
    }

    /// Narrow-waist value `nw(v)` (§6.1).
    #[inline]
    pub fn narrow_waist(&self, v: NodeId) -> usize {
        self.alive.saturating_sub(self.related[v.index()] as usize).saturating_sub(1)
    }
}

/// `into |= row(p) ∪ {p}` for each `p` in `nodes`, over `w`-word rows.
fn or_rows(rows: &[u64], w: usize, into: &mut [u64], nodes: &[NodeId]) {
    for &p in nodes {
        let i = p.index();
        into.iter_mut().zip(&rows[i * w..][..w]).for_each(|(a, b)| *a |= b);
        into[i / 64] |= 1 << (i % 64);
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
        assert_eq!(ancestors_of(&g, c), vec![x, a, b]);
        assert_eq!(descendants_of(&g, x), vec![a, b, c]);
        assert_eq!(descendants_of(&g, y), vec![z]);
        assert!(descendants_of(&g, c).is_empty());
        assert!(!descendants_of(&g, x).contains(&z));
        // The table counts what the on-demand walks list.
        let r = Reachability::compute(&g);
        for v in g.node_ids() {
            let related = ancestors_of(&g, v).len() + descendants_of(&g, v).len();
            assert_eq!(r.narrow_waist(v), g.len() - related - 1, "{v}");
        }
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
