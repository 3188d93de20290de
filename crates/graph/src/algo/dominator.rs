//! Dominator trees over (sub-)graphs (§2.1 of the paper).
//!
//! A virtual root is added above all entry nodes of the requested node
//! set, so multi-input DNN graphs (input tensor, labels, many weights)
//! are handled uniformly. Implemented with the Cooper–Harvey–Kennedy
//! iterative algorithm over a reverse-postorder (any topological order
//! of a DAG).

use super::topo::topo_order_of;
use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::BTreeSet;

/// The dominator tree `T(G')` of an induced sub-graph.
///
/// Stored densely: nodes in reverse postorder, the immediate dominator
/// of each by RPO position (`idom[i] < i`), and a preorder layout of
/// the tree in which every subtree is one contiguous run — so a
/// dominated region is a borrowed slice, never a freshly built set.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Nodes in reverse postorder (a topological order of the DAG).
    order: Vec<NodeId>,
    /// Immediate dominators, keyed by node.
    idom: Idoms,
    /// Subtree size (the node itself included) by RPO position.
    size: Vec<usize>,
    /// Preorder slot by RPO position; siblings in ascending RPO order.
    pre_of: Vec<usize>,
    /// Nodes in preorder: the subtree of the node at slot `k` with
    /// size `s` is `pre[k..k + s]`.
    pre: Vec<NodeId>,
    /// Nodes directly below the virtual root, in RPO order.
    roots: Vec<NodeId>,
}

/// Immediate dominators keyed by node: a dense slot → RPO-position
/// table in front of the by-position array.
#[derive(Debug, Clone)]
struct Idoms {
    /// Slot → RPO position (`usize::MAX` = not in the tree).
    pos: Vec<usize>,
    /// Immediate dominator by RPO position (`ROOT` = the virtual
    /// root); `by_pos[i] < i`.
    by_pos: Vec<usize>,
}

impl Idoms {
    fn position(&self, v: NodeId) -> Option<usize> {
        self.pos.get(v.index()).copied().filter(|&i| i != usize::MAX)
    }

    fn contains_key(&self, v: &NodeId) -> bool {
        self.position(*v).is_some()
    }
}

const ROOT: usize = usize::MAX;

impl DomTree {
    /// Computes the dominator tree of the sub-graph of `g` induced by
    /// `set` (only edges with both endpoints in `set` are considered).
    ///
    /// Entry nodes (no predecessor inside `set`) hang off the virtual
    /// root.
    pub fn compute<G: GraphView>(g: &G, set: &BTreeSet<NodeId>) -> Self {
        let order = topo_order_of(g, set); // RPO of a DAG
        let mut pos = vec![usize::MAX; g.capacity()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        const UNDEF: usize = usize::MAX - 1;
        let n = order.len();
        let mut idom = vec![UNDEF; n];

        // Raw predecessor slices: duplicate entries (a pred reached
        // through both a data edge and a keepalive edge) are harmless —
        // the CHK fixpoint intersects idempotently and converges to the
        // unique dominator assignment regardless of pred multiplicity
        // or order. A pin group is read expanded: the analyzer runs on
        // base graphs, which hold none.
        let mut preds: Vec<usize> = Vec::new();
        let mut preds_start = vec![0usize];
        let pins = g.pins();
        let at = |p: NodeId| Some(pos[p.index()]).filter(|&i| i != usize::MAX);
        for &v in &order {
            let node = g.node(v);
            preds.extend(node.inputs().iter().chain(node.keepalive()).filter_map(|&p| at(p)));
            if !pins.is_empty() {
                preds.extend(pins.pinned_before(v).filter_map(at));
            }
            preds_start.push(preds.len());
        }
        let preds_of = |i: usize| &preds[preds_start[i]..preds_start[i + 1]];

        // Walks the deeper of two positions up until they meet; the
        // virtual root is above everything.
        let intersect = |idom: &[usize], mut a: usize, mut b: usize| -> usize {
            while a != b {
                if a == ROOT || b == ROOT {
                    return ROOT;
                }
                if a > b {
                    a = idom[a];
                } else {
                    b = idom[b];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut new_idom = UNDEF;
                for &p in preds_of(i).iter().filter(|&&p| idom[p] != UNDEF) {
                    new_idom = if new_idom == UNDEF { p } else { intersect(&idom, new_idom, p) };
                }
                // No processed predecessor (an entry has none at all).
                if new_idom == UNDEF {
                    new_idom = ROOT;
                }
                if idom[i] != new_idom {
                    idom[i] = new_idom;
                    changed = true;
                }
            }
        }

        // `idom[i] < i`, so one reverse sweep sums subtree sizes and
        // one forward sweep hands every node the next free preorder
        // slot inside its parent's run.
        let mut size = vec![1usize; n];
        for i in (0..n).rev() {
            if idom[i] != ROOT {
                size[idom[i]] += size[i];
            }
        }
        let mut pre_of = vec![0usize; n];
        let mut next = vec![0usize; n];
        let mut next_root = 0;
        let mut pre = order.clone();
        let mut roots = Vec::new();
        for i in 0..n {
            let free = if idom[i] == ROOT {
                roots.push(order[i]);
                &mut next_root
            } else {
                &mut next[idom[i]]
            };
            pre_of[i] = *free;
            *free += size[i];
            next[i] = pre_of[i] + 1;
            pre[pre_of[i]] = order[i];
        }
        DomTree { order, idom: Idoms { pos, by_pos: idom }, size, pre_of, pre, roots }
    }

    /// Immediate dominator of `v`; `None` if `v` hangs off the virtual
    /// root (or is not in the tree).
    pub fn idom(&self, v: NodeId) -> Option<NodeId> {
        let p = self.idom.by_pos[self.idom.position(v)?];
        (p != ROOT).then(|| self.order[p])
    }

    /// Children of `v` in the tree (`T.suc(v)`), in RPO order: each
    /// child's subtree run starts where the previous one ends.
    pub fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut rest = self.descendants_slice(v);
        std::iter::from_fn(move || {
            let &c = rest.first()?;
            rest = &rest[self.size[self.idom.pos[c.index()]]..];
            Some(c)
        })
    }

    /// Nodes whose immediate dominator is the virtual root.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// All nodes in the tree, in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.idom.pos.len()).map(NodeId::from_index).filter(|v| self.idom.contains_key(v))
    }

    /// Strict descendants of `v` (`T.des(v)`) as a borrowed preorder
    /// run; empty if `v` is a leaf or not in the tree.
    pub fn descendants_slice(&self, v: NodeId) -> &[NodeId] {
        match self.idom.position(v) {
            Some(i) => &self.pre[self.pre_of[i] + 1..self.pre_of[i] + self.size[i]],
            None => &[],
        }
    }

    /// Strict descendants of `v` in the dominator tree (`T.des(v)`):
    /// every node dominated by `v`, excluding `v` itself.
    pub fn descendants(&self, v: NodeId) -> BTreeSet<NodeId> {
        self.descendants_slice(v).iter().copied().collect()
    }

    /// Descendants of `v` including `v` (the full dominated region).
    pub fn dominated_region(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut s = self.descendants(v);
        s.insert(v);
        s
    }

    /// Whether `u` dominates `v` (reflexive): `v`'s preorder slot lies
    /// in `u`'s subtree run.
    pub fn dominates(&self, u: NodeId, v: NodeId) -> bool {
        match (self.idom.position(u), self.idom.position(v)) {
            (Some(a), Some(b)) => {
                (self.pre_of[a]..self.pre_of[a] + self.size[a]).contains(&self.pre_of[b])
            }
            _ => u == v,
        }
    }
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

    fn all(g: &Graph) -> BTreeSet<NodeId> {
        g.node_ids().collect()
    }

    #[test]
    fn chain_dominators() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let t = DomTree::compute(&g, &all(&g));
        assert_eq!(t.idom(x), None);
        assert_eq!(t.idom(a), Some(x));
        assert_eq!(t.idom(b), Some(a));
        assert!(t.dominates(x, b));
        assert_eq!(t.descendants(x), [a, b].into_iter().collect());
    }

    #[test]
    fn diamond_joins_at_fork() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        let t = DomTree::compute(&g, &all(&g));
        // c's immediate dominator is x, not a or b.
        assert_eq!(t.idom(c), Some(x));
        assert!(t.dominates(x, c));
        assert!(!t.dominates(a, c));
    }

    #[test]
    fn multiple_entries_use_virtual_root() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let w = g.add_input(InputKind::Weight, meta(), "w");
        let y = g.add(OpKind::Binary(BinaryKind::Mul), &[x, w]).unwrap();
        let t = DomTree::compute(&g, &all(&g));
        assert_eq!(t.idom(x), None);
        assert_eq!(t.idom(w), None);
        // y joins two entries: dominated only by the virtual root.
        assert_eq!(t.idom(y), None);
        assert_eq!(t.roots().len(), 3);
    }

    #[test]
    fn subgraph_restriction() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let c = g.add(OpKind::Unary(UnaryKind::Relu), &[b]).unwrap();
        // Restrict to {b, c}: b becomes an entry.
        let set: BTreeSet<NodeId> = [b, c].into_iter().collect();
        let t = DomTree::compute(&g, &set);
        assert_eq!(t.idom(b), None);
        assert_eq!(t.idom(c), Some(b));
        assert!(!t.idom.contains_key(&a));
    }

    #[test]
    fn paper_fig6_style_nesting() {
        // A small version of Fig. 6: a chain of residual blocks. Each
        // block head dominates its block body; the entry dominates all.
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let mut cur = x;
        let mut heads = Vec::new();
        for _ in 0..3 {
            let h = g.add(OpKind::Unary(UnaryKind::Relu), &[cur]).unwrap();
            let l = g.add(OpKind::Unary(UnaryKind::Gelu), &[h]).unwrap();
            let r = g.add(OpKind::Unary(UnaryKind::Tanh), &[h]).unwrap();
            let j = g.add(OpKind::Binary(BinaryKind::Add), &[l, r]).unwrap();
            heads.push(h);
            cur = j;
        }
        let t = DomTree::compute(&g, &all(&g));
        for (i, &h) in heads.iter().enumerate() {
            assert!(t.dominates(x, h));
            for &h2 in &heads[i + 1..] {
                assert!(t.dominates(h, h2), "earlier head dominates later blocks");
            }
        }
    }
}
