//! TASO-style transformation rules (Fig. 1 (a)/(b) of the paper).
//!
//! A representative subset of the rule families MAGIS borrows from
//! TASO \[25\]:
//!
//! * **A-Trans** — aggregate sibling matmuls/convolutions that share an
//!   input into one larger kernel plus slices (trades transient memory
//!   for latency); the canonical use is merging a transformer block's
//!   Q/K/V projections, which the paper applies to every baseline for
//!   fairness (§7.1).
//! * **I-Trans** — algebraic enablers; here, re-association of `Add`
//!   chains, which exposes new aggregation and fission sites.

use magis_graph::{GraphTxn, GraphView};
use super::{outside_enabled_regions, Applied, ApplyError, Transform, MAX_PER_RULE};
use crate::state::MState;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::{BinaryKind, Conv2dAttrs, OpKind};
use std::collections::BTreeSet;

/// A concrete TASO rule instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TasoTransform {
    /// Merge two sibling matmuls `X@W1`, `X@W2` into `X@concat(W1,W2)`
    /// + slices (A-Trans, Fig. 1 (a) left).
    MergeMatmuls {
        /// First sibling matmul.
        a: NodeId,
        /// Second sibling matmul.
        b: NodeId,
    },
    /// Merge two sibling convolutions over the same input into one
    /// convolution with concatenated filters + channel slices
    /// (A-Trans, Fig. 1 (a) right).
    MergeConvs {
        /// First sibling convolution.
        a: NodeId,
        /// Second sibling convolution.
        b: NodeId,
    },
    /// Re-associate `(a + b) + c` to `a + (b + c)` (I-Trans,
    /// Fig. 1 (b)).
    RotateAdd {
        /// The outer `Add` of the re-associated pair.
        top: NodeId,
    },
}

/// Generates TASO candidates.
pub fn generate(state: &MState, out: &mut Vec<Transform>) {
    let g = &state.base;
    let mut count = 0usize;
    for x in g.node_ids() {
        if count >= MAX_PER_RULE {
            break;
        }
        // Sibling matmuls / convs over `x`.
        let succs = g.suc(x);
        let mms: Vec<NodeId> = succs
            .iter()
            .copied()
            .filter(|&v| {
                matches!(
                    g.node(v).op,
                    OpKind::MatMul { transpose_a: false, transpose_b: false }
                ) && g.pre(v)[0] == x
                    && g.node(g.pre(v)[1]).op.is_weight_input()
            })
            .collect();
        for pair in mms.windows(2) {
            let set: BTreeSet<NodeId> = pair.iter().copied().collect();
            if outside_enabled_regions(&state.ftree, &set) && mergeable_matmuls(g, pair[0], pair[1])
            {
                out.push(Transform::Taso(TasoTransform::MergeMatmuls { a: pair[0], b: pair[1] }));
                count += 1;
            }
        }
        let convs: Vec<NodeId> = succs
            .iter()
            .copied()
            .filter(|&v| {
                matches!(g.node(v).op, OpKind::Conv2d(_))
                    && g.pre(v)[0] == x
                    && g.node(g.pre(v)[1]).op.is_weight_input()
            })
            .collect();
        for pair in convs.windows(2) {
            let set: BTreeSet<NodeId> = pair.iter().copied().collect();
            if outside_enabled_regions(&state.ftree, &set) && mergeable_convs(g, pair[0], pair[1]) {
                out.push(Transform::Taso(TasoTransform::MergeConvs { a: pair[0], b: pair[1] }));
                count += 1;
            }
        }
    }
    // I-Trans: rotate left-leaning Add chains.
    for v in g.node_ids() {
        if count >= MAX_PER_RULE * 2 {
            break;
        }
        if let OpKind::Binary(BinaryKind::Add) = g.node(v).op {
            let inner = g.pre(v)[0];
            if matches!(g.node(inner).op, OpKind::Binary(BinaryKind::Add))
                && g.use_count(inner) == 1
                && g.node(inner).meta == g.node(v).meta
                && g.node(g.pre(inner)[0]).meta == g.node(v).meta
            {
                let set: BTreeSet<NodeId> = [v, inner].into_iter().collect();
                if outside_enabled_regions(&state.ftree, &set) {
                    out.push(Transform::Taso(TasoTransform::RotateAdd { top: v }));
                    count += 1;
                }
            }
        }
    }
}

fn mergeable_matmuls(g: &Graph, a: NodeId, b: NodeId) -> bool {
    a != b
        && g.pre(a)[0] == g.pre(b)[0]
        && g.node(g.pre(a)[1]).meta.shape.dim(0) == g.node(g.pre(b)[1]).meta.shape.dim(0)
        && g.node(a).meta.dtype == g.node(b).meta.dtype
}

fn mergeable_convs(g: &Graph, a: NodeId, b: NodeId) -> bool {
    let (OpKind::Conv2d(ca), OpKind::Conv2d(cb)) = (&g.node(a).op, &g.node(b).op) else {
        return false;
    };
    a != b
        && ca == cb
        && g.pre(a)[0] == g.pre(b)[0]
        && g.node(g.pre(a)[1]).meta.shape.dims()[1..] == g.node(g.pre(b)[1]).meta.shape.dims()[1..]
}

/// Applies a TASO transform.
pub fn apply(state: &MState, t: &TasoTransform) -> Result<Applied, ApplyError> {
    match *t {
        TasoTransform::MergeMatmuls { a, b } => merge_matmuls(state, a, b),
        TasoTransform::MergeConvs { a, b } => merge_convs(state, a, b),
        TasoTransform::RotateAdd { top } => rotate_add(state, top),
    }
}

/// Combines two weights into one. When both are single-use weight
/// inputs the concatenation is *folded*: a new weight input replaces
/// them (TASO rewrites parameters at compile time, paying no runtime
/// concat). Otherwise an explicit `Concat` node is emitted.
fn combine_weights(
    g: &mut GraphTxn,
    wa: NodeId,
    wb: NodeId,
    axis: usize,
) -> Result<NodeId, ApplyError> {
    let foldable = g.node(wa).op.is_weight_input()
        && g.node(wb).op.is_weight_input()
        && g.use_count(wa) == 1
        && g.use_count(wb) == 1;
    if foldable {
        let ma = g.node(wa).meta.clone();
        let d = ma.shape.dim(axis) + g.node(wb).meta.shape.dim(axis);
        let meta = magis_graph::TensorMeta::new(ma.shape.with_dim(axis, d), ma.dtype);
        Ok(g.add_input(magis_graph::op::InputKind::Weight, meta, "folded_w"))
    } else {
        g.add(OpKind::Concat { axis }, &[wa, wb]).map_err(err)
    }
}

fn merge_matmuls(state: &MState, a: NodeId, b: NodeId) -> Result<Applied, ApplyError> {
    let mut g = GraphTxn::begin(&state.base);
    if !g.contains(a) || !g.contains(b) || !mergeable_matmuls(&state.base, a, b) {
        return Err(ApplyError("stale matmul merge".into()));
    }
    let x = g.pre(a)[0];
    let (wa, wb) = (g.pre(a)[1], g.pre(b)[1]);
    let na = g.node(a).meta.shape.dim(1);
    let nb = g.node(b).meta.shape.dim(1);
    let wc = combine_weights(&mut g, wa, wb, 1)?;
    let y = g
        .add(OpKind::MatMul { transpose_a: false, transpose_b: false }, &[x, wc])
        .map_err(err)?;
    let ya = g.add(OpKind::Slice { axis: 1, start: 0, len: na }, &[y]).map_err(err)?;
    let yb = g.add(OpKind::Slice { axis: 1, start: na, len: nb }, &[y]).map_err(err)?;
    let mutated: BTreeSet<NodeId> =
        [a, b, x].into_iter().chain(g.suc(a)).chain(g.suc(b)).collect();
    g.redirect_uses(a, ya);
    g.redirect_uses(b, yb);
    let (wa2, wb2) = (g.pre(a)[1], g.pre(b)[1]);
    g.remove(a).map_err(err)?;
    g.remove(b).map_err(err)?;
    for w in [wa2, wb2] {
        if g.contains(w) && g.use_count(w) == 0 {
            let _ = g.remove(w);
        }
    }
    let base = g.commit();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

fn merge_convs(state: &MState, a: NodeId, b: NodeId) -> Result<Applied, ApplyError> {
    let mut g = GraphTxn::begin(&state.base);
    if !g.contains(a) || !g.contains(b) || !mergeable_convs(&state.base, a, b) {
        return Err(ApplyError("stale conv merge".into()));
    }
    let attrs = match g.node(a).op {
        OpKind::Conv2d(c) => c,
        _ => Conv2dAttrs::same(1),
    };
    let x = g.pre(a)[0];
    let (wa, wb) = (g.pre(a)[1], g.pre(b)[1]);
    let oa = g.node(a).meta.shape.dim(1);
    let ob = g.node(b).meta.shape.dim(1);
    let wc = combine_weights(&mut g, wa, wb, 0)?;
    let y = g.add(OpKind::Conv2d(attrs), &[x, wc]).map_err(err)?;
    let ya = g.add(OpKind::Slice { axis: 1, start: 0, len: oa }, &[y]).map_err(err)?;
    let yb = g.add(OpKind::Slice { axis: 1, start: oa, len: ob }, &[y]).map_err(err)?;
    let mutated: BTreeSet<NodeId> =
        [a, b, x].into_iter().chain(g.suc(a)).chain(g.suc(b)).collect();
    g.redirect_uses(a, ya);
    g.redirect_uses(b, yb);
    let (wa2, wb2) = (g.pre(a)[1], g.pre(b)[1]);
    g.remove(a).map_err(err)?;
    g.remove(b).map_err(err)?;
    for w in [wa2, wb2] {
        if g.contains(w) && g.use_count(w) == 0 {
            let _ = g.remove(w);
        }
    }
    let base = g.commit();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

fn rotate_add(state: &MState, top: NodeId) -> Result<Applied, ApplyError> {
    let mut g = GraphTxn::begin(&state.base);
    if !g.contains(top) || !matches!(g.node(top).op, OpKind::Binary(BinaryKind::Add)) {
        return Err(ApplyError("stale add rotation".into()));
    }
    let inner = g.pre(top)[0];
    if !matches!(g.node(inner).op, OpKind::Binary(BinaryKind::Add)) || g.use_count(inner) != 1 {
        return Err(ApplyError("inner add gone".into()));
    }
    let (a, b) = (g.pre(inner)[0], g.pre(inner)[1]);
    let c = g.pre(top)[1];
    let bc = g.add(OpKind::Binary(BinaryKind::Add), &[b, c]).map_err(err)?;
    let abc = g.add(OpKind::Binary(BinaryKind::Add), &[a, bc]).map_err(err)?;
    let mutated: BTreeSet<NodeId> =
        [top, inner, a, b, c].into_iter().chain(g.suc(top)).collect();
    g.redirect_uses(top, abc);
    g.remove(top).map_err(err)?;
    g.remove(inner).map_err(err)?;
    let base = g.commit();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

fn err(e: magis_graph::GraphError) -> ApplyError {
    ApplyError(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EvalContext, MState};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    /// Q/K/V-style three sibling projections.
    fn qkv_state() -> MState {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([64, 128], "x");
        let wq = bld.weight([128, 128], "wq");
        let wk = bld.weight([128, 128], "wk");
        let q = bld.matmul(x, wq);
        let k = bld.matmul(x, wk);
        let _o = bld.add_op(q, k);
        MState::initial(bld.finish(), &EvalContext::default())
    }

    #[test]
    fn merge_matmuls_generated_and_applied() {
        let state = qkv_state();
        let mut cands = Vec::new();
        generate(&state, &mut cands);
        let mm = cands
            .iter()
            .find_map(|t| match t {
                Transform::Taso(tt @ TasoTransform::MergeMatmuls { .. }) => Some(*tt),
                _ => None,
            })
            .expect("sibling matmuls found");
        let applied = apply(&state, &mm).unwrap();
        applied.base.validate().unwrap();
        // One fewer matmul, one concat, one big matmul, two slices.
        let n_mm = applied
            .base
            .node_ids()
            .filter(|&v| matches!(applied.base.node(v).op, OpKind::MatMul { .. }))
            .count();
        assert_eq!(n_mm, 1);
        // Both projections were single-use weights: the concatenation
        // is folded into one new weight input, no runtime concat.
        let folded = applied
            .base
            .node_ids()
            .find(|&v| {
                applied.base.node(v).op.is_weight_input()
                    && applied.base.node(v).meta.shape.dims() == [128, 256]
            })
            .expect("folded weight input");
        assert!(applied.base.use_count(folded) > 0);
        assert!(!applied
            .base
            .node_ids()
            .any(|v| matches!(applied.base.node(v).op, OpKind::Concat { .. })));
    }

    #[test]
    fn merge_matmuls_improves_latency_costs_memory() {
        let state = qkv_state();
        let ctx = EvalContext::default();
        let mut cands = Vec::new();
        generate(&state, &mut cands);
        let mm = cands
            .iter()
            .find_map(|t| match t {
                Transform::Taso(tt @ TasoTransform::MergeMatmuls { .. }) => Some(*tt),
                _ => None,
            })
            .unwrap();
        let merged = MState::from_applied(apply(&state, &mm).unwrap(), &state, &ctx).unwrap();
        assert!(
            merged.eval.latency < state.eval.latency,
            "aggregation trades memory for latency: {} vs {}",
            merged.eval.latency,
            state.eval.latency
        );
    }

    #[test]
    fn merge_convs_applied() {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([4, 16, 32, 32], "x");
        let w1 = bld.weight([32, 16, 3, 3], "w1");
        let w2 = bld.weight([32, 16, 3, 3], "w2");
        let c1 = bld.conv2d(x, w1, Conv2dAttrs::same(1));
        let c2 = bld.conv2d(x, w2, Conv2dAttrs::same(1));
        let _o = bld.add_op(c1, c2);
        let state = MState::initial(bld.finish(), &EvalContext::default());
        let applied = apply(&state, &TasoTransform::MergeConvs { a: c1, b: c2 }).unwrap();
        applied.base.validate().unwrap();
        let conv = applied
            .base
            .node_ids()
            .find(|&v| matches!(applied.base.node(v).op, OpKind::Conv2d(_)))
            .unwrap();
        assert_eq!(applied.base.node(conv).meta.shape.dims(), &[4, 64, 32, 32]);
    }

    #[test]
    fn rotate_add_preserves_shape() {
        let mut bld = GraphBuilder::new(DType::F32);
        let a = bld.input([8, 8], "a");
        let b = bld.input([8, 8], "b");
        let c = bld.input([8, 8], "c");
        let ab = bld.add_op(a, b);
        let abc = bld.add_op(ab, c);
        let _t = bld.relu(abc);
        let state = MState::initial(bld.finish(), &EvalContext::default());
        let applied = apply(&state, &TasoTransform::RotateAdd { top: abc }).unwrap();
        applied.base.validate().unwrap();
        assert_eq!(applied.base.len(), state.base.len());
    }
}
