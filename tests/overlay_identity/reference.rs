//! The fission overlay as it was before it became region-linear, kept
//! as a test oracle: multi-pass validation over tree sets, one
//! `input_dim_links` per helper with cloned metas, and one
//! `add_keepalive` per (input, merge) pair. `tests/overlay_identity.rs`
//! holds the rewritten overlay to this code graph for graph;
//! `tests/robustness_properties.rs` holds `validate` to it verdict for
//! verdict. Nothing outside `tests/` may call it.

use magis::core::fission::{FissionError, FissionSpec, OverlayInfo};
use magis::graph::algo::{topo_order_of, weakly_connected_components, BitSet};
use magis::graph::op::{DimLink, MergeKind, OpKind};
use magis::graph::{GraphTxn, GraphView, NodeId, TensorMeta};
use std::collections::{BTreeMap, BTreeSet};

fn is_convex<G: GraphView>(g: &G, set: &BTreeSet<NodeId>) -> bool {
    let mut seen = BitSet::new(g.capacity());
    let mut stack: Vec<NodeId> = Vec::new();
    for &v in set {
        for s in g.suc(v) {
            if !set.contains(&s) && !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    while let Some(v) = stack.pop() {
        for s in g.suc(v) {
            if set.contains(&s) {
                return false;
            }
            if !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    true
}

fn links_of<G: GraphView>(g: &G, v: NodeId) -> Vec<Vec<DimLink>> {
    let node = g.node(v);
    let metas: Vec<TensorMeta> = node.inputs().iter().map(|&u| g.node(u).meta.clone()).collect();
    node.op.input_dim_links(&metas, &node.meta)
}

pub fn validate<G: GraphView>(spec: &FissionSpec, g: &G) -> Result<(), FissionError> {
    if spec.set.is_empty()
        || spec.dims.len() != spec.set.len()
        || !spec.dims.keys().all(|v| spec.set.contains(v))
    {
        return Err(FissionError::BadCoverage);
    }
    for &v in &spec.set {
        if !g.contains(v) {
            return Err(FissionError::DeadNode(v));
        }
        if matches!(
            g.node(v).op,
            OpKind::Store | OpKind::Load | OpKind::PartSlice { .. } | OpKind::Merge { .. }
        ) {
            return Err(FissionError::ForbiddenOp(v));
        }
    }
    if weakly_connected_components(g, &spec.set).len() != 1 {
        return Err(FissionError::NotConnected);
    }
    if !is_convex(g, &spec.set) {
        return Err(FissionError::NotConvex);
    }
    for (&v, &d) in &spec.dims {
        let n = g.node(v);
        if d > 0 {
            let axis = (d - 1) as usize;
            if axis >= n.meta.shape.rank() || !n.op.splittable_output_dims(&n.meta)[axis] {
                return Err(FissionError::UnsplittableDim(v, d));
            }
            let extent = n.meta.shape.dim(axis);
            if extent < spec.parts.max(2) {
                return Err(FissionError::ExtentTooSmall(v, extent));
            }
        } else {
            let r = (-d - 1) as usize;
            if r >= n.op.num_reduce_axes() {
                return Err(FissionError::UnsplittableDim(v, d));
            }
            if g.suc(v).iter().any(|s| spec.set.contains(s)) {
                return Err(FissionError::InteriorReduce(v));
            }
        }
    }
    for &v in &spec.set {
        let node = g.node(v);
        if node.op.is_input() {
            continue;
        }
        let links = links_of(g, v);
        for (slot, &u) in node.inputs().iter().enumerate() {
            if !spec.set.contains(&u) {
                continue;
            }
            let du = spec.dims[&u];
            if du < 0 {
                return Err(FissionError::InteriorReduce(u));
            }
            let covered = match links[slot].get((du - 1) as usize) {
                Some(l) => match spec.dims[&v] {
                    d if d > 0 => l.spatial_dim() == Some((d - 1) as usize),
                    d => *l == DimLink::Reduce((-d - 1) as usize),
                },
                None => false,
            };
            if !covered {
                return Err(FissionError::UncoveredEdge(u, v));
            }
        }
    }
    input_slice_axes(spec, g)?;
    Ok(())
}

pub fn input_slice_axes<G: GraphView>(
    spec: &FissionSpec,
    g: &G,
) -> Result<BTreeMap<NodeId, Option<usize>>, FissionError> {
    let mut out: BTreeMap<NodeId, Option<usize>> = BTreeMap::new();
    for &v in &spec.set {
        let node = g.node(v);
        if node.op.is_input() {
            continue;
        }
        let links = links_of(g, v);
        let matches_selected = |l: &DimLink| match spec.dims[&v] {
            d if d > 0 => l.spatial_dim() == Some((d - 1) as usize),
            d => *l == DimLink::Reduce((-d - 1) as usize),
        };
        for (slot, &u) in node.inputs().iter().enumerate() {
            if spec.set.contains(&u) {
                continue;
            }
            let axis = if g.node(u).op.in_dim_graph() {
                links[slot].iter().position(matches_selected)
            } else {
                None
            };
            match out.get(&u) {
                None => {
                    out.insert(u, axis);
                }
                Some(&prev) if prev == axis => {}
                Some(_) => return Err(FissionError::AmbiguousInputSlice(u)),
            }
        }
    }
    Ok(out)
}

pub fn outputs<G: GraphView>(spec: &FissionSpec, g: &G) -> Vec<NodeId> {
    g.set_outputs(&spec.set).into_iter().collect()
}

pub fn region_halo<G: GraphView>(spec: &FissionSpec, g: &G) -> u64 {
    let mut total = 0u64;
    for (&v, &d) in &spec.dims {
        if d <= 0 || g.node(v).op.is_input() {
            continue;
        }
        total += links_of(g, v)
            .iter()
            .flatten()
            .filter_map(|l| match *l {
                DimLink::Windowed { dim, halo } if dim == (d - 1) as usize => Some(halo),
                _ => None,
            })
            .max()
            .unwrap_or(0);
    }
    total
}

pub fn apply_overlay(g: &mut GraphTxn, spec: &FissionSpec) -> Result<OverlayInfo, FissionError> {
    if spec.parts < 2 {
        return Err(FissionError::TrivialParts);
    }
    validate(spec, g)?;
    let n = spec.parts;
    let slice_axes = input_slice_axes(spec, g)?;
    let halo = region_halo(spec, g);
    let outputs = outputs(spec, g);
    let entry = topo_order_of(g, &spec.set)[0];
    let orig_meta: BTreeMap<NodeId, _> =
        spec.set.iter().map(|&v| (v, g.node(v).meta.clone())).collect();
    let base_repeat: BTreeMap<NodeId, u64> =
        spec.set.iter().map(|&v| (v, g.node(v).cost_repeat)).collect();

    let mut slices = Vec::new();
    for (&u, &axis) in &slice_axes {
        let Some(axis) = axis else { continue };
        let ps = g.add(OpKind::PartSlice { axis, parts: n, halo }, &[u]).expect("slice of live input");
        g.set_cost_repeat(ps, base_repeat.values().copied().min().unwrap_or(1));
        for &v in &spec.set {
            if g.pre(v).contains(&u) {
                g.replace_input(v, u, ps);
            }
        }
        slices.push(ps);
    }

    for (&v, &d) in &spec.dims {
        let rep = g.node(v).cost_repeat;
        g.set_cost_repeat(v, rep * n);
        if d > 0 {
            let axis = (d - 1) as usize;
            let meta = g.node(v).meta.clone();
            g.set_meta(v, TensorMeta::new(meta.shape.split_dim(axis, n), meta.dtype));
        }
    }

    let mut merges = Vec::new();
    for v in outputs {
        let d = spec.dims[&v];
        let (op, meta, repeat) = if d > 0 {
            (
                OpKind::Merge { kind: MergeKind::Concat, axis: (d - 1) as usize, parts: n },
                orig_meta[&v].clone(),
                base_repeat[&v],
            )
        } else {
            (
                OpKind::Merge { kind: MergeKind::Sum, axis: 0, parts: n },
                orig_meta[&v].clone(),
                base_repeat[&v] * n,
            )
        };
        let consumers: Vec<NodeId> =
            g.suc(v).into_iter().filter(|s| !spec.set.contains(s)).collect();
        let m = g.add_with_meta(op, &[v], meta).expect("merge of live output");
        g.set_cost_repeat(m, repeat);
        g.set_alloc_with(m, entry);
        for c in consumers {
            if c != m {
                g.replace_input(c, v, m);
            }
        }
        merges.push(m);
    }

    for &u in slice_axes.keys() {
        for &m in &merges {
            g.add_keepalive(u, m).expect("live endpoints");
        }
    }
    Ok(OverlayInfo { slices, merges })
}
