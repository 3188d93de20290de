//! The dominator tree as it was before the dense rewrite: maps keyed by
//! node id, children lists, and `descendants` as a tree walk into a
//! fresh set. Kept only as the oracle for `ftree_identity` and for
//! `crates/graph/tests/dom_tree_identity.rs`; reads `magis_graph`
//! alone so both can include it.

use magis_graph::algo::topo_order_of;
use magis_graph::{GraphView, NodeId};
use std::collections::{BTreeMap, BTreeSet};

pub struct DomTree {
    idom: BTreeMap<NodeId, Option<NodeId>>,
    children: BTreeMap<NodeId, Vec<NodeId>>,
    roots: Vec<NodeId>,
}

impl DomTree {
    pub fn compute<G: GraphView>(g: &G, set: &BTreeSet<NodeId>) -> Self {
        let order = topo_order_of(g, set);
        let mut rpo_pos = vec![usize::MAX; g.capacity()];
        for (i, &v) in order.iter().enumerate() {
            rpo_pos[v.index()] = i;
        }
        const ROOT: usize = usize::MAX;
        const UNDEF: usize = usize::MAX - 1;
        let n = order.len();
        let mut idom = vec![UNDEF; n];
        let preds: Vec<Vec<usize>> = order
            .iter()
            .map(|&v| {
                let node = g.node(v);
                node.inputs()
                    .iter()
                    .chain(node.keepalive())
                    .filter_map(|p| {
                        let i = rpo_pos[p.index()];
                        (i != usize::MAX).then_some(i)
                    })
                    .collect()
            })
            .collect();

        let intersect = |idom: &[usize], mut a: usize, mut b: usize| -> usize {
            loop {
                if a == b {
                    return a;
                }
                if a == ROOT || b == ROOT {
                    return ROOT;
                }
                while a > b {
                    a = idom[a];
                    if a == ROOT {
                        return ROOT;
                    }
                }
                while b > a {
                    b = idom[b];
                    if b == ROOT {
                        return ROOT;
                    }
                }
            }
        };

        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut new_idom = UNDEF;
                if preds[i].is_empty() {
                    new_idom = ROOT;
                } else {
                    for &p in &preds[i] {
                        if idom[p] == UNDEF {
                            continue;
                        }
                        new_idom = if new_idom == UNDEF { p } else { intersect(&idom, new_idom, p) };
                    }
                    if new_idom == UNDEF {
                        new_idom = ROOT;
                    }
                }
                if idom[i] != new_idom {
                    idom[i] = new_idom;
                    changed = true;
                }
            }
        }

        let mut idom_map = BTreeMap::new();
        let mut children: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, &v) in order.iter().enumerate() {
            children.entry(v).or_default();
            if idom[i] == ROOT {
                idom_map.insert(v, None);
                roots.push(v);
            } else {
                let parent = order[idom[i]];
                idom_map.insert(v, Some(parent));
                children.entry(parent).or_default().push(v);
            }
        }
        DomTree { idom: idom_map, children, roots }
    }

    pub fn idom(&self, v: NodeId) -> Option<NodeId> {
        self.idom.get(&v).copied().flatten()
    }

    pub fn children(&self, v: NodeId) -> &[NodeId] {
        self.children.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.idom.keys().copied()
    }

    pub fn descendants(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<NodeId> = self.children(v).to_vec();
        while let Some(u) = stack.pop() {
            if out.insert(u) {
                stack.extend_from_slice(self.children(u));
            }
        }
        out
    }

    pub fn dominates(&self, u: NodeId, v: NodeId) -> bool {
        let mut cur = Some(v);
        while let Some(c) = cur {
            if c == u {
                return true;
            }
            cur = self.idom(c);
        }
        false
    }
}
