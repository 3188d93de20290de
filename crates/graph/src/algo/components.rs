//! Weakly connected components of node subsets.

use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::BTreeSet;

/// Splits `set` into weakly connected components of the induced
/// sub-graph (edges with both endpoints inside `set`, direction
/// ignored; a pin group joins its members in `set` when it has one on
/// each side). Components are returned in ascending order of their
/// smallest node id; each component is sorted.
pub fn weakly_connected_components<G: GraphView>(
    g: &G,
    set: &BTreeSet<NodeId>,
) -> Vec<BTreeSet<NodeId>> {
    // Dense membership flags keyed by slot: the flood fill then walks
    // raw neighbour slices with no per-node set lookups or sorting.
    let mut remaining = vec![false; g.capacity()];
    for &v in set {
        remaining[v.index()] = true;
    }
    let pins = g.pins();
    // A group's members are all in one component, so it is walked once.
    let mut walked = vec![false; pins.groups().len()];
    let mut components = Vec::new();
    let mut stack = Vec::new();
    for &seed in set {
        if !remaining[seed.index()] {
            continue;
        }
        remaining[seed.index()] = false;
        let mut comp = BTreeSet::new();
        stack.push(seed);
        while let Some(v) = stack.pop() {
            comp.insert(v);
            let n = g.node(v);
            let mut visit = |u: NodeId| {
                if remaining[u.index()] {
                    remaining[u.index()] = false;
                    stack.push(u);
                }
            };
            n.inputs().iter().chain(n.keepalive()).chain(n.succs()).for_each(|&u| visit(u));
            for p in pins.of(v) {
                let group = pins.group(p.group);
                if !std::mem::replace(&mut walked[p.group as usize], true)
                    && group.inputs().iter().any(|u| set.contains(u))
                    && group.merges().iter().any(|m| set.contains(m))
                {
                    group.inputs().iter().chain(group.merges()).for_each(|&u| visit(u));
                }
            }
        }
        components.push(comp);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], DType::F32)
    }

    #[test]
    fn two_chains_two_components() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let y = g.add_input(InputKind::Activation, meta(), "y");
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[y]).unwrap();
        let all: BTreeSet<NodeId> = g.node_ids().collect();
        let comps = weakly_connected_components(&g, &all);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], [x, a].into_iter().collect());
        assert_eq!(comps[1], [y, b].into_iter().collect());
    }

    #[test]
    fn induced_edges_only() {
        // x -> a -> b: the subset {x, b} is disconnected because `a` is
        // outside it.
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let set: BTreeSet<NodeId> = [x, b].into_iter().collect();
        assert_eq!(weakly_connected_components(&g, &set).len(), 2);
    }
}
