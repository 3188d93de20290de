//! Read access to computation graphs: the [`GraphView`] trait.
//!
//! Every consumer of graph structure — scheduling, simulation, search —
//! reads through this trait instead of the concrete slot layout, which
//! is what lets [`Graph`](crate::graph::Graph) swap its storage (today:
//! copy-on-write `Arc` pages) without touching any downstream crate,
//! and lets a [`GraphTxn`](crate::txn::GraphTxn) be queried mid-rewrite
//! with the same vocabulary.
//!
//! The trait has three storage primitives — [`GraphView::slot`],
//! [`GraphView::len`], [`GraphView::capacity`] — and derives the whole
//! read API (`node`/`pre`/`suc`/`node_ids`/`graph_inputs`/…) from them.

use crate::graph::{Node, NodeId};
use crate::pins::{PinTable, NO_PINS};
use std::collections::BTreeSet;

/// Read-only view of a computation graph (Table 1 of the paper:
/// `G.pre`, `G.suc`, `inps`, `outs`, `|v|`).
///
/// Implemented by [`Graph`](crate::graph::Graph) and
/// [`GraphTxn`](crate::txn::GraphTxn). Functions that only read graph
/// structure take `&G where G: GraphView` so they work on either.
pub trait GraphView {
    /// Storage primitive: `Some` for live nodes, `None` for tombstoned
    /// or out-of-range slots.
    fn slot(&self, i: usize) -> Option<&Node>;

    /// Number of live nodes (`|V(G)|`).
    fn len(&self) -> usize;

    /// Arena capacity: one greater than the largest slot in use. Size
    /// bitsets with this.
    fn capacity(&self) -> usize;

    /// The graph's pin groups ([`crate::pins`]): keepalive fans stored
    /// once each. A view without any reads as the empty table.
    #[inline]
    fn pins(&self) -> &PinTable {
        &NO_PINS
    }

    /// Whether the graph has no nodes.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` refers to a live node.
    #[inline]
    fn contains(&self, id: NodeId) -> bool {
        self.slot(id.index()).is_some()
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live node of this graph.
    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        self.slot(id.index()).expect("live node")
    }

    /// Iterates live node ids in arena order.
    fn node_ids(&self) -> NodeIds<'_, Self>
    where
        Self: Sized,
    {
        NodeIds { g: self, i: 0, n: self.capacity() }
    }

    /// Data predecessors of `v` with multiplicity (`G.pre(v)` as a list).
    #[inline]
    fn pre(&self, v: NodeId) -> &[NodeId] {
        self.node(v).inputs()
    }

    /// Every predecessor of `v` with multiplicity: data inputs, then
    /// keepalive edges, then the inputs of each pin group `v` is a
    /// merge of. Expands groups per node: a pass over the whole graph
    /// that must stay linear in its groups reads [`Self::pins`] instead.
    fn deps(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.node(v);
        n.inputs().iter().chain(n.keepalive()).copied().chain(self.pins().pinned_before(v))
    }

    /// Every successor of `v` with multiplicity: data and keepalive-edge
    /// users, then the merges of each pin group `v` is an input of.
    fn users(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(v).succs().iter().copied().chain(self.pins().pinned_until(v))
    }

    /// All predecessors of `v` (data, keepalive and pins), deduplicated
    /// and sorted.
    fn pre_all(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.deps(v).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Successors of `v` (`G.suc(v)`, pins included), deduplicated and
    /// sorted.
    fn suc(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.users(v).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of uses of `v`'s output (with multiplicity), pins included.
    #[inline]
    fn use_count(&self, v: NodeId) -> usize {
        let pins = self.pins();
        let pinned = pins.of(v).iter().filter(|p| !p.merge);
        self.node(v).succs().len() + pinned.map(|p| pins.group(p.group).merges().len()).sum::<usize>()
    }

    /// Graph inputs (`inps(G)`): nodes without predecessors.
    fn graph_inputs(&self) -> Vec<NodeId>
    where
        Self: Sized,
    {
        self.node_ids()
            .filter(|&v| self.deps(v).next().is_none())
            .collect()
    }

    /// Graph outputs (`outs(G)`): nodes without successors.
    fn graph_outputs(&self) -> Vec<NodeId>
    where
        Self: Sized,
    {
        self.node_ids().filter(|&v| self.users(v).next().is_none()).collect()
    }

    /// `G.inps(S)`: nodes outside `S` consumed by `S`.
    fn set_inputs(&self, s: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for &v in s {
            for p in self.pre_all(v) {
                if !s.contains(&p) {
                    out.insert(p);
                }
            }
        }
        out
    }

    /// `G.outs(S)`: nodes of `S` whose output is used outside `S` (or is
    /// a graph output).
    fn set_outputs(&self, s: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for &v in s {
            let succs = self.suc(v);
            if succs.is_empty() || succs.iter().any(|u| !s.contains(u)) {
                out.insert(v);
            }
        }
        out
    }

    /// Total bytes of all live node outputs (a loose upper bound used by
    /// heuristics; aliases excluded).
    fn total_bytes(&self) -> u64
    where
        Self: Sized,
    {
        self.node_ids()
            .map(|v| self.node(v))
            .filter(|n| !n.op.is_alias())
            .map(Node::size_bytes)
            .sum()
    }
}

impl GraphView for crate::graph::Graph {
    #[inline]
    fn slot(&self, i: usize) -> Option<&Node> {
        self.slot_raw(i)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len_raw()
    }

    #[inline]
    fn pins(&self) -> &PinTable {
        self.pins_raw()
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity_raw()
    }
}

/// Iterator over live node ids in arena order (concrete type so
/// [`GraphView::node_ids`] needs no boxing).
pub struct NodeIds<'a, G> {
    g: &'a G,
    i: usize,
    n: usize,
}

impl<G: GraphView> Iterator for NodeIds<'_, G> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.i < self.n {
            let i = self.i;
            self.i += 1;
            if self.g.slot(i).is_some() {
                return Some(NodeId::from_index(i));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.n - self.i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::tensor::DType;

    #[test]
    fn node_ids_skip_tombstones_and_view_matches_len() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([16], "x");
        let a = b.relu(x);
        let _y = b.gelu(a);
        let g = b.finish();
        assert_eq!(g.node_ids().count(), g.len());
        assert_eq!(g.graph_inputs(), vec![x]);
        assert!(g.contains(a));
        assert!(!g.contains(NodeId::from_index(99)));
    }
}
