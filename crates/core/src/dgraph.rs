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
use magis_graph::op::DimLink;
use std::collections::{BTreeMap, BTreeSet};

/// A D-Graph vertex `⟨node, dim⟩`: `dim > 0` is the 1-based output
/// dimension, `dim < 0` is the (negated, 1-based) reduce axis.
pub type DimVertex = (NodeId, i32);

/// The Dimension Graph `D(G)`.
#[derive(Debug, Clone, Default)]
pub struct DimGraph {
    /// Undirected adjacency (both directions stored).
    adj: BTreeMap<DimVertex, BTreeSet<DimVertex>>,
}

impl DimGraph {
    /// Builds `D(G)`.
    pub fn build(g: &Graph) -> Self {
        let mut adj: BTreeMap<DimVertex, BTreeSet<DimVertex>> = BTreeMap::new();
        // Vertices.
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
        // Edges.
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
                        // Windowed links join the same spatial axis;
                        // halo costs are applied at fission time.
                        DimLink::Windowed { dim, .. } => (v, *dim as i32 + 1),
                        DimLink::Reduce(r) => (v, -(*r as i32 + 1)),
                        DimLink::Unlinked => continue,
                    };
                    if adj.contains_key(&uv) && adj.contains_key(&vv) {
                        // Unwrap audit: both keys checked present on
                        // the line above.
                        adj.get_mut(&uv).expect("vertex").insert(vv);
                        adj.get_mut(&vv).expect("vertex").insert(uv);
                    }
                }
            }
        }
        DimGraph { adj }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the D-Graph is empty.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of a vertex.
    pub fn neighbours(&self, v: DimVertex) -> impl Iterator<Item = DimVertex> + '_ {
        self.adj.get(&v).into_iter().flatten().copied()
    }

    /// All vertices.
    pub fn vertices(&self) -> impl Iterator<Item = DimVertex> + '_ {
        self.adj.keys().copied()
    }

    /// Weakly connected components with more than one vertex (a lone
    /// dimension connects nothing and cannot drive a fission).
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
