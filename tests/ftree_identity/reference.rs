//! The M-Analyzer as it was before the dense rewrite: the D-Graph as
//! `BTreeMap<DimVertex, BTreeSet<DimVertex>>` with a flood-fill
//! `components()`, the dominant-entry region as one `BTreeSet` per
//! entry, the dominator tree of `dom_reference.rs`, and Algorithm 1
//! with a `descendants()` set per dominator and `f64` sums. This file
//! and `dom_reference.rs` are the only places that algorithm still
//! exists; `ftree_identity.rs` holds the rewritten analyzer to it.

// The graph crate's test calls more of the tree than `build_ftree`.
#[allow(dead_code)]
#[path = "dom_reference.rs"]
pub mod dom;

use dom::DomTree;
use magis_core::dgraph::DimVertex;
use magis_core::fission::FissionSpec;
use magis_core::ftree::FTreeNode;
use magis_graph::{DimLink, Graph, GraphView, NodeId};
use std::collections::{BTreeMap, BTreeSet};

pub struct DimGraph {
    adj: BTreeMap<DimVertex, BTreeSet<DimVertex>>,
}

impl DimGraph {
    pub fn build(g: &Graph) -> Self {
        let mut adj: BTreeMap<DimVertex, BTreeSet<DimVertex>> = BTreeMap::new();
        for v in g.node_ids() {
            let n = g.node(v);
            if !n.op.in_dim_graph() {
                continue;
            }
            for i in 1..=n.meta.shape.rank() as i32 {
                adj.entry((v, i)).or_default();
            }
            for r in 1..=n.op.num_reduce_axes() as i32 {
                adj.entry((v, -r)).or_default();
            }
        }
        for v in g.node_ids() {
            let n = g.node(v);
            if !n.op.in_dim_graph() || n.op.is_input() {
                continue;
            }
            let input_metas: Vec<_> = n.inputs().iter().map(|&u| &g.node(u).meta).collect();
            let links = n.op.input_dim_links(&input_metas, &n.meta);
            for (slot, &u) in n.inputs().iter().enumerate() {
                if !g.node(u).op.in_dim_graph() {
                    continue;
                }
                for (i, link) in links[slot].iter().enumerate() {
                    let uv = (u, i as i32 + 1);
                    let vv = match link {
                        DimLink::Spatial(j) => (v, *j as i32 + 1),
                        DimLink::Windowed { dim, .. } => (v, *dim as i32 + 1),
                        DimLink::Reduce(r) => (v, -(*r as i32 + 1)),
                        DimLink::Unlinked => continue,
                    };
                    if adj.contains_key(&uv) && adj.contains_key(&vv) {
                        adj.get_mut(&uv).expect("vertex").insert(vv);
                        adj.get_mut(&vv).expect("vertex").insert(uv);
                    }
                }
            }
        }
        DimGraph { adj }
    }

    pub fn len(&self) -> usize {
        self.adj.len()
    }

    pub fn neighbours(&self, v: DimVertex) -> impl Iterator<Item = DimVertex> + '_ {
        self.adj.get(&v).into_iter().flatten().copied()
    }

    pub fn vertices(&self) -> impl Iterator<Item = DimVertex> + '_ {
        self.adj.keys().copied()
    }

    pub fn components(&self) -> Vec<BTreeSet<DimVertex>> {
        let mut remaining: BTreeSet<DimVertex> = self.adj.keys().copied().collect();
        let mut out = Vec::new();
        while let Some(&seed) = remaining.iter().next() {
            remaining.remove(&seed);
            let mut comp = BTreeSet::new();
            let mut stack = vec![seed];
            while let Some(v) = stack.pop() {
                comp.insert(v);
                for n in self.neighbours(v) {
                    if remaining.remove(&n) {
                        stack.push(n);
                    }
                }
            }
            if comp.len() > 1 {
                out.push(comp);
            }
        }
        out
    }
}

fn component_dims(
    component: &BTreeSet<DimVertex>,
    set: &BTreeSet<NodeId>,
) -> Option<BTreeMap<NodeId, i32>> {
    let mut dims: BTreeMap<NodeId, i32> = BTreeMap::new();
    for &(v, d) in component {
        if set.contains(&v) && dims.insert(v, d).is_some() {
            return None;
        }
    }
    (dims.len() == set.len()).then_some(dims)
}

fn dominant_entry_region(g: &Graph, comp: &BTreeSet<NodeId>) -> Option<BTreeSet<NodeId>> {
    let mut in_comp = vec![false; g.capacity()];
    for &v in comp {
        in_comp[v.index()] = true;
    }
    let entries: Vec<NodeId> = comp
        .iter()
        .copied()
        .filter(|&v| {
            let n = g.node(v);
            n.inputs().iter().chain(n.keepalive()).all(|p| !in_comp[p.index()])
        })
        .collect();
    let mut seen = vec![false; g.capacity()];
    let mut best: Option<BTreeSet<NodeId>> = None;
    for e in entries {
        seen.fill(false);
        let mut out: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack = vec![e];
        seen[e.index()] = true;
        while let Some(v) = stack.pop() {
            out.insert(v);
            for &s in g.node(v).succs() {
                if in_comp[s.index()] && !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        if best.as_ref().is_none_or(|b| out.len() >= b.len()) {
            best = Some(out);
        }
    }
    best
}

/// `FTree::build` (Algorithm 1), returning the tree's nodes.
pub fn build_ftree(g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> Vec<FTreeNode> {
    let dg = DimGraph::build(g);
    let mut candidates: Vec<(BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize)> = Vec::new();
    let mut hot = vec![false; g.capacity()];
    for &h in hotspots {
        hot[h.index()] = true;
    }
    let mut in_region = vec![0u32; g.capacity()];
    let mut pred_mark = vec![0u32; g.capacity()];
    let mut epoch = 0u32;
    for comp in dg.components() {
        let comp_nodes: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
        if comp_nodes.len() < 2 {
            continue;
        }
        let comp_nodes = match dominant_entry_region(g, &comp_nodes) {
            Some(r) => r,
            None => comp_nodes,
        };
        if comp_nodes.len() < 2 {
            continue;
        }
        let t = DomTree::compute(g, &comp_nodes);
        let sizes = |v: NodeId| g.node(v).size_bytes() as f64;
        let mut scores: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut desc: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for v in t.nodes() {
            let region = t.descendants(v);
            let region = desc.entry(v).or_insert(region);
            if region.is_empty() {
                continue;
            }
            epoch += 1;
            for &w in region.iter() {
                in_region[w.index()] = epoch;
            }
            let heat: f64 = region.iter().filter(|w| hot[w.index()]).map(|&w| sizes(w)).sum();
            let mut preds: Vec<NodeId> = Vec::new();
            for &w in region.iter() {
                let nd = g.node(w);
                for &p in nd.inputs().iter().chain(nd.keepalive()) {
                    if in_region[p.index()] != epoch && pred_mark[p.index()] != epoch {
                        pred_mark[p.index()] = epoch;
                        preds.push(p);
                    }
                }
            }
            preds.sort_unstable();
            let inputs: f64 = preds.iter().filter(|u| !hot[u.index()]).map(|&u| sizes(u)).sum();
            scores.insert(v, 0.5 * heat - inputs);
        }
        let smax = scores.values().copied().fold(f64::MIN, f64::max);
        if smax <= 0.0 {
            continue;
        }
        for i in 1..=l {
            let lo = i as f64 / l as f64;
            let hi = (i + 1) as f64 / l as f64;
            let v_i: BTreeSet<NodeId> = scores
                .iter()
                .filter(|(_, &s)| {
                    let ns = s / smax;
                    ns >= lo && (ns < hi || (i == l && ns <= 1.0))
                })
                .map(|(&v, _)| v)
                .collect();
            for &vdom in &v_i {
                let region = &desc[&vdom];
                if region.iter().any(|d| v_i.contains(d)) {
                    continue;
                }
                if region.is_empty() {
                    continue;
                }
                let Some(dims) = component_dims(&comp, region) else { continue };
                let probe = FissionSpec { set: region.clone(), dims, parts: 2 };
                if probe.validate(g).is_ok() {
                    candidates.push((probe.set, probe.dims, i));
                }
            }
        }
    }
    assemble(candidates)
}

fn assemble(mut candidates: Vec<(BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize)>) -> Vec<FTreeNode> {
    candidates.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
    candidates.dedup_by(|a, b| a.0 == b.0);
    let mut nodes: Vec<FTreeNode> = Vec::new();
    for (set, dims, level) in candidates {
        let mut parent: Option<usize> = None;
        for (i, n) in nodes.iter().enumerate() {
            if n.spec.set.len() > set.len() && set.is_subset(&n.spec.set) {
                match parent {
                    Some(p) if nodes[p].spec.set.len() <= n.spec.set.len() => {}
                    _ => parent = Some(i),
                }
            }
        }
        let idx = nodes.len();
        nodes.push(FTreeNode {
            spec: FissionSpec { set, dims, parts: 1 },
            parent,
            children: Vec::new(),
            level,
        });
        if let Some(p) = parent {
            nodes[p].children.push(idx);
        }
    }
    nodes
}
