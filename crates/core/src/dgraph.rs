//! The Dimension Graph (D-Graph, §4.1 of the paper).
//!
//! A vertex `⟨v, i⟩` exists for every output dimension (`i > 0`,
//! 1-based) and every reduce axis (`i < 0`) of every operator that
//! participates (weights and labels are excluded — fission shares them
//! rather than slicing, §4.2). An edge connects dimensions of
//! producer and consumer tensors that index the same spatial axis, or a
//! producer dimension to the consumer's reduce axis it feeds.
//!
//! Weakly connected components of the D-Graph are the "graph-level
//! dimensions" (batch, heads, sequence, …) that a fission
//! transformation can split along.

use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::{DimLink, DimLinks};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// A D-Graph vertex `⟨node, dim⟩`: `dim > 0` is the 1-based output
/// dimension, `dim < 0` is the (negated, 1-based) reduce axis.
pub type DimVertex = (NodeId, i32);

/// The Dimension Graph `D(G)`, numbered densely: vertex `k` is
/// `verts[k]`, and the numbering follows `(NodeId, dim)` order — each
/// node's reduce axes, then its output dimensions.
#[derive(Debug, Clone, Default)]
pub struct DimGraph {
    /// Vertices in ascending `(NodeId, dim)` order.
    verts: Vec<DimVertex>,
    /// Undirected edges as vertex-number pairs, one entry per link.
    edges: Vec<(u32, u32)>,
    /// The multi-vertex components in order of their smallest vertex,
    /// vertices ascending within each.
    comps: Vec<Vec<DimVertex>>,
}

impl DimGraph {
    /// Builds `D(G)` and its components in one pass over the dimension
    /// links (union-find, so no adjacency sets are materialised).
    pub fn build(g: &Graph) -> Self {
        // Vertices: `dims[slot]` is the slot's vertex-number range and
        // `zero[slot]` the number dimension "0" would have, so `⟨v, d⟩`
        // is `zero[v] + d` for a reduce axis and one less for an output
        // dimension.
        let mut verts = Vec::new();
        let mut dims: Vec<Range<u32>> = vec![0..0; g.capacity()];
        let mut zero = vec![0u32; g.capacity()];
        for v in g.node_ids() {
            let n = g.node(v);
            if !n.op.in_dim_graph() {
                continue;
            }
            let first = verts.len() as u32;
            verts.extend((1..=n.op.num_reduce_axes() as i32).rev().map(|r| (v, -r)));
            zero[v.index()] = verts.len() as u32;
            verts.extend((1..=n.meta.shape.rank() as i32).map(|i| (v, i)));
            dims[v.index()] = first..verts.len() as u32;
        }
        let number = |v: NodeId, d: i64| -> Option<u32> {
            let k = u32::try_from(i64::from(zero[v.index()]) + d - i64::from(d > 0)).ok()?;
            dims[v.index()].contains(&k).then_some(k)
        };
        // Edges, unioned as they are found.
        let mut edges = Vec::new();
        let mut uf = UnionFind { parent: (0..verts.len() as u32).collect(), size: vec![1; verts.len()] };
        let mut links = DimLinks::default();
        for v in g.node_ids() {
            let n = g.node(v);
            if !n.op.in_dim_graph() || n.op.is_input() {
                continue;
            }
            n.op.dim_links_into(n.inputs().iter().map(|&u| &g.node(u).meta), &n.meta, &mut links);
            for (slot, &u) in n.inputs().iter().enumerate() {
                if !g.node(u).op.in_dim_graph() {
                    continue;
                }
                for (i, link) in links[slot].iter().enumerate() {
                    let d = match link {
                        DimLink::Spatial(j) => *j as i64 + 1,
                        // Windowed links join the same spatial axis;
                        // halo costs are applied at fission time.
                        DimLink::Windowed { dim, .. } => *dim as i64 + 1,
                        DimLink::Reduce(r) => -(*r as i64 + 1),
                        DimLink::Unlinked => continue,
                    };
                    if let (Some(a), Some(b)) = (number(u, i as i64 + 1), number(v, d)) {
                        edges.push((a, b));
                        uf.union(a, b);
                    }
                }
            }
        }
        // Group by component. Scanning vertices in ascending order
        // meets every component at its smallest vertex first, which
        // fixes the component order; lone vertices are dropped.
        const NONE: u32 = u32::MAX;
        let mut comp_of_root = vec![NONE; verts.len()];
        let mut comps: Vec<Vec<DimVertex>> = Vec::new();
        for (k, &v) in verts.iter().enumerate() {
            let r = uf.find(k as u32) as usize;
            if uf.size[r] > 1 {
                if comp_of_root[r] == NONE {
                    comp_of_root[r] = comps.len() as u32;
                    comps.push(Vec::with_capacity(uf.size[r] as usize));
                }
                comps[comp_of_root[r] as usize].push(v);
            }
        }
        DimGraph { verts, edges, comps }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the D-Graph is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Neighbours of a vertex, ascending and without repeats. A scan of
    /// the edge list: the analyzer itself only consumes components.
    pub fn neighbours(&self, v: DimVertex) -> impl Iterator<Item = DimVertex> + '_ {
        let k = self.verts.binary_search(&v).ok().map(|k| k as u32);
        let other_end = move |&(a, b): &(u32, u32)| match k {
            Some(k) if a == k => Some(b),
            Some(k) if b == k => Some(a),
            _ => None,
        };
        let out: BTreeSet<DimVertex> =
            self.edges.iter().filter_map(other_end).map(|n| self.verts[n as usize]).collect();
        out.into_iter()
    }

    /// All vertices.
    pub fn vertices(&self) -> impl Iterator<Item = DimVertex> + '_ {
        self.verts.iter().copied()
    }

    /// The components as ascending vertex slices.
    pub(crate) fn component_slices(&self) -> impl Iterator<Item = &[DimVertex]> + '_ {
        self.comps.iter().map(Vec::as_slice)
    }

    /// Weakly connected components with more than one vertex (a lone
    /// dimension connects nothing and cannot drive a fission), in order
    /// of their smallest vertex.
    pub fn components(&self) -> Vec<BTreeSet<DimVertex>> {
        self.component_slices().map(|c| c.iter().copied().collect()).collect()
    }
}

/// Union-find over vertex numbers (union by size, path halving).
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn find(&mut self, mut k: u32) -> u32 {
        while self.parent[k as usize] != k {
            let up = self.parent[self.parent[k as usize] as usize];
            self.parent[k as usize] = up;
            k = up;
        }
        k
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        if self.size[a as usize] < self.size[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b as usize] = a;
        self.size[a as usize] += self.size[b as usize];
    }
}

/// Restricts a component to a node subset and extracts the per-node dim
/// choice. Returns `None` if some node of `set` has no vertex or more
/// than one vertex in the component (constraint (3) of §4.2 requires
/// exactly one).
pub fn component_dims(
    component: &BTreeSet<DimVertex>,
    set: &BTreeSet<NodeId>,
) -> Option<BTreeMap<NodeId, i32>> {
    let mut dims: BTreeMap<NodeId, i32> = BTreeMap::new();
    for &(v, d) in component {
        if set.contains(&v) && dims.insert(v, d).is_some() {
            return None; // two dims of one node in the same component
        }
    }
    if dims.len() == set.len() {
        Some(dims)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    #[test]
    fn matmul_chain_batch_dimension_flows() {
        // x[b,k] @ w[k,m] -> h; h @ w2[m,c] -> y: the batch dim of x,
        // h, y forms one component; k/m inner dims form others.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([32, 64], "x");
        let w = bld.weight([64, 16], "w");
        let h = bld.matmul(x, w);
        let w2 = bld.weight([16, 8], "w2");
        let y = bld.matmul(h, w2);
        let g = bld.finish();
        let d = DimGraph::build(&g);
        // Weights excluded entirely.
        assert!(d.vertices().all(|(v, _)| v != w && v != w2));
        let comps = d.components();
        // Find the component containing ⟨x,1⟩ (batch).
        let batch = comps.iter().find(|c| c.contains(&(x, 1))).unwrap();
        assert!(batch.contains(&(h, 1)));
        assert!(batch.contains(&(y, 1)));
        // The batch component has no reduce vertices.
        assert!(batch.iter().all(|&(_, dim)| dim > 0));
    }

    #[test]
    fn reduce_axis_vertices_created() {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([32, 64], "x");
        let w = bld.weight([64, 16], "w");
        let h = bld.matmul(x, w);
        let g = bld.finish();
        let d = DimGraph::build(&g);
        // ⟨h,-1⟩ exists and connects to ⟨x,2⟩ (the contracted dim).
        let nbrs: Vec<_> = d.neighbours((h, -1)).collect();
        assert!(nbrs.contains(&(x, 2)));
    }

    #[test]
    fn weight_gradient_pattern_like_paper_fig5() {
        // dW = xᵀ @ dy contracts over the batch dim: the batch
        // component must reach dW only through its reduce axis, exactly
        // the v8 case of Fig. 5.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([32, 64], "x");
        let dy = bld.input([32, 16], "dy");
        let dw = bld.matmul_t(x, dy, true, false); // [64, 16]
        let g = bld.finish();
        let d = DimGraph::build(&g);
        let comps = d.components();
        let batch = comps.iter().find(|c| c.contains(&(x, 1))).unwrap();
        assert!(batch.contains(&(dy, 1)));
        assert!(batch.contains(&(dw, -1)), "batch reaches dW as a reduce axis");
        assert!(!batch.contains(&(dw, 1)) && !batch.contains(&(dw, 2)));
    }

    #[test]
    fn attention_sequence_component_spans_softmax() {
        // Fig. 4: the sequence dim runs through scores and softmax.
        let (bsz, t, c) = (2, 8, 16);
        let mut bld = GraphBuilder::new(DType::F32);
        let q = bld.input([bsz, t, c], "q");
        let k = bld.input([bsz, t, c], "k");
        let v = bld.input([bsz, t, c], "v");
        let scores = bld.batch_matmul_t(q, k, false, true); // [b,t,t]
        let p = bld.softmax(scores, 2);
        let o = bld.batch_matmul(p, v); // [b,t,c]
        let g = bld.finish();
        let d = DimGraph::build(&g);
        let comps = d.components();
        // Component of ⟨q,2⟩ (query positions): scores dim 2, p dim 2, o dim 2.
        let seq = comps.iter().find(|cm| cm.contains(&(q, 2))).unwrap();
        assert!(seq.contains(&(scores, 2)));
        assert!(seq.contains(&(p, 2)));
        assert!(seq.contains(&(o, 2)));
        // Key positions flow to scores dim 3, softmax dim 3 and o's
        // reduce axis — possibly the same weak component via k.
        let key_side = comps.iter().find(|cm| cm.contains(&(k, 2))).unwrap();
        assert!(key_side.contains(&(scores, 3)));
        assert!(key_side.contains(&(o, -1)));
    }

    #[test]
    fn component_dims_uniqueness() {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([4, 4], "x");
        // y = x @ xᵀ: both dims of x join one component through y.
        let y = bld.matmul_t(x, x, false, true);
        let g = bld.finish();
        let d = DimGraph::build(&g);
        let comps = d.components();
        let set: BTreeSet<NodeId> = [x, y].into_iter().collect();
        // The spatial component joins both of y's dims through x's
        // rows: not a unique per-node choice -> rejected. The
        // contraction component (⟨x,2⟩, ⟨y,-1⟩) is unique: splitting
        // the inner product into partial sums is legitimate.
        let selections: Vec<_> =
            comps.iter().filter_map(|c| component_dims(c, &set)).collect();
        assert_eq!(selections.len(), 1);
        assert_eq!(selections[0][&x], 2);
        assert_eq!(selections[0][&y], -1);
    }
}
