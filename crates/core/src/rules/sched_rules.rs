//! Scheduling-based rules (§5.2, Fig. 8): re-materialization and
//! swapping expressed as graph transformations, plus their inverses.
//!
//! Decomposing scheduling into these rules + pure re-ordering moves the
//! whole memory/latency trade-off into the transformation search space
//! (§1): after any rule application the scheduler only has to re-order
//! for memory, never to decide *what* to recompute or swap.

use magis_graph::{GraphTxn, GraphView};
use super::{outside_enabled_regions, Applied, ApplyError, RuleConfig, Transform, MAX_PER_RULE};
use crate::state::MState;
use magis_graph::graph::NodeId;
use magis_graph::op::OpKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// Whether a node's output is worth re-materializing / swapping.
fn is_schedulable_producer(state: &MState, v: NodeId) -> bool {
    let n = state.base.node(v);
    !n.op.is_input()
        && !n.op.is_swap()
        && !n.op.is_alias()
        && !matches!(n.op, OpKind::PartSlice { .. } | OpKind::Merge { .. })
        && n.size_bytes() > 0
}

/// Minimum tensor size (bytes) for a swap to be worth issuing.
const MIN_SWAP_BYTES: u64 = 1 << 18;

/// Generates re-mat, de-re-mat, swap, and de-swap candidates.
pub fn generate(state: &MState, cfg: &RuleConfig, out: &mut Vec<Transform>) {
    let g = &state.base;
    let hot = &state.eval.hotspots_base;
    let pos = state.eval.base_positions();

    // --- Re-materialization & swapping sites -------------------------
    let mut producers: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| is_schedulable_producer(state, v))
        .filter(|&v| !cfg.hotspot_filter || hot.contains(&v))
        .filter(|v| g.suc(*v).len() >= 2)
        .collect();
    producers.sort_by_key(|&v| std::cmp::Reverse(g.node(v).size_bytes()));
    producers.truncate(MAX_PER_RULE);
    for &p in &producers {
        // Separate the *latest* user (Fig. 8 (a): one user switches to
        // the recomputed clone; the later the user, the longer the gap
        // the rule can free).
        let user = g
            .suc(p)
            .into_iter()
            .filter(|&u| !g.node(u).op.is_swap())
            .max_by_key(|u| pos.get(u).copied().unwrap_or(0));
        if let Some(user) = user {
            let region: BTreeSet<NodeId> = [p, user].into_iter().collect();
            if outside_enabled_regions(&state.ftree, &region) {
                out.push(Transform::Remat { producer: p, user });
                if g.node(p).size_bytes() >= MIN_SWAP_BYTES {
                    out.push(Transform::Swap { producer: p, user });
                }
            }
        }
    }
    // Swap is also useful for single-user long-lived tensors (e.g.
    // forward activations kept for the backward pass).
    let mut single: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| is_schedulable_producer(state, v))
        .filter(|&v| !cfg.hotspot_filter || hot.contains(&v))
        .filter(|&v| g.suc(v).len() == 1 && g.node(v).size_bytes() >= MIN_SWAP_BYTES)
        .collect();
    single.sort_by_key(|&v| std::cmp::Reverse(g.node(v).size_bytes()));
    single.truncate(MAX_PER_RULE);
    for p in single {
        let user = g.suc(p)[0];
        if g.node(user).op.is_swap() {
            continue;
        }
        // Only worthwhile when producer and user are far apart.
        let gap = pos
            .get(&user)
            .copied()
            .unwrap_or(0)
            .saturating_sub(pos.get(&p).copied().unwrap_or(0));
        if gap < 8 {
            continue;
        }
        let region: BTreeSet<NodeId> = [p, user].into_iter().collect();
        if outside_enabled_regions(&state.ftree, &region) {
            out.push(Transform::Swap { producer: p, user });
        }
    }

    // --- Inverse rules ------------------------------------------------
    // De-re-mat: duplicate (op, inputs) pairs.
    let mut sig: HashMap<u64, NodeId> = HashMap::new();
    for v in g.node_ids() {
        let n = g.node(v);
        if n.op.is_input() || n.op.is_swap() {
            continue;
        }
        let mut h = DefaultHasher::new();
        n.op.hash(&mut h);
        n.inputs().hash(&mut h);
        let key = h.finish();
        match sig.get(&key) {
            Some(&first) if g.node(first).op == n.op && g.pre(first) == n.inputs() => {
                let region: BTreeSet<NodeId> = [first, v].into_iter().collect();
                if outside_enabled_regions(&state.ftree, &region) {
                    out.push(Transform::DeRemat { keep: first, drop: v });
                }
            }
            _ => {
                sig.insert(key, v);
            }
        }
    }
    // De-swap: every Store→Load pair can be collapsed.
    for v in g.node_ids() {
        if matches!(g.node(v).op, OpKind::Load) {
            out.push(Transform::DeSwap { load: v });
        }
    }
}

/// Users of `producer` scheduled in the same late cluster as `user`:
/// the anchor user and everything at or after it, minus a small slack
/// window (the backward pass typically reads an activation through
/// both its `dX` and `dW` consumers at the same stage — Fig. 8 (b)'s
/// rule moves the whole group to the recomputed clone).
fn late_cluster(state: &MState, producer: NodeId, user: NodeId) -> Vec<NodeId> {
    let pos = state.eval.base_positions();
    let n = state.eval.order.len().max(1);
    let anchor = pos.get(&user).copied().unwrap_or(usize::MAX);
    let slack = n / 10 + 1;
    state
        .base
        .suc(producer)
        .into_iter()
        .filter(|u| {
            *u == user
                || pos
                    .get(u)
                    .is_some_and(|&p| p + slack >= anchor)
        })
        .collect()
}

/// Applies the re-materialization rule: the late user cluster switches
/// to a recomputed clone of the producer.
pub fn apply_remat(state: &MState, producer: NodeId, user: NodeId) -> Result<Applied, ApplyError> {
    let mut txn = GraphTxn::begin(&state.base);
    if !txn.contains(producer) || !txn.contains(user) {
        return Err(ApplyError("stale remat target".into()));
    }
    if !txn.pre(user).contains(&producer) {
        return Err(ApplyError("user no longer consumes producer".into()));
    }
    let group = late_cluster(state, producer, user);
    if group.len() >= txn.suc(producer).len() {
        return Err(ApplyError("remat would orphan the producer".into()));
    }
    let node = txn.node(producer).clone();
    let clone = txn
        .add_with_meta(node.op.clone(), node.inputs(), node.meta.clone())
        .map_err(|e| ApplyError(e.to_string()))?;
    txn.set_name(clone, "remat");
    let mut mutated: BTreeSet<NodeId> = [producer].into_iter().collect();
    for u in group {
        txn.replace_input(u, producer, clone);
        mutated.insert(u);
    }
    let base = txn.into_graph();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

/// Applies the de-re-materialization rule.
pub fn apply_deremat(state: &MState, keep: NodeId, drop: NodeId) -> Result<Applied, ApplyError> {
    let mut txn = GraphTxn::begin(&state.base);
    if !txn.contains(keep) || !txn.contains(drop) || keep == drop {
        return Err(ApplyError("stale deremat target".into()));
    }
    if txn.node(keep).op != txn.node(drop).op || txn.pre(keep) != txn.pre(drop) {
        return Err(ApplyError("nodes are no longer duplicates".into()));
    }
    let mutated: BTreeSet<NodeId> =
        [keep, drop].into_iter().chain(txn.suc(drop)).collect();
    txn.redirect_uses(drop, keep);
    txn.remove(drop).map_err(|e| ApplyError(e.to_string()))?;
    let base = txn.into_graph();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

/// Applies the swapping rule: the late user cluster reads the tensor
/// back through a `Store`/`Load` pair.
pub fn apply_swap(state: &MState, producer: NodeId, user: NodeId) -> Result<Applied, ApplyError> {
    let mut txn = GraphTxn::begin(&state.base);
    if !txn.contains(producer) || !txn.contains(user) {
        return Err(ApplyError("stale swap target".into()));
    }
    if !txn.pre(user).contains(&producer) {
        return Err(ApplyError("user no longer consumes producer".into()));
    }
    let group = late_cluster(state, producer, user);
    let st = txn.add(OpKind::Store, &[producer]).map_err(|e| ApplyError(e.to_string()))?;
    let ld = txn.add(OpKind::Load, &[st]).map_err(|e| ApplyError(e.to_string()))?;
    let mut mutated: BTreeSet<NodeId> = [producer].into_iter().collect();
    for u in group {
        txn.replace_input(u, producer, ld);
        mutated.insert(u);
    }
    let base = txn.into_graph();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

/// Applies the de-swapping rule: `A -> Store -> Load -> B` becomes
/// `A -> B`.
pub fn apply_deswap(state: &MState, load: NodeId) -> Result<Applied, ApplyError> {
    let mut txn = GraphTxn::begin(&state.base);
    if !txn.contains(load) || !matches!(txn.node(load).op, OpKind::Load) {
        return Err(ApplyError("stale deswap target".into()));
    }
    let store = txn.pre(load)[0];
    if !matches!(txn.node(store).op, OpKind::Store) {
        return Err(ApplyError("load without store".into()));
    }
    let producer = txn.pre(store)[0];
    let mutated: BTreeSet<NodeId> =
        [producer, store, load].into_iter().chain(txn.suc(load)).collect();
    txn.redirect_uses(load, producer);
    txn.remove(load).map_err(|e| ApplyError(e.to_string()))?;
    if txn.use_count(store) == 0 {
        txn.remove(store).map_err(|e| ApplyError(e.to_string()))?;
    }
    let base = txn.into_graph();
    Ok(Applied { base, ftree: state.ftree.clone(), mutated, tree_stale: true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EvalContext, MState};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    /// Two long-lived 1 MiB tensors produced cheaply from small
    /// weights, consumed in LIFO order at the end (the backward-pass
    /// lifetime shape): the classic remat/swap site. The peak holds
    /// both of them plus the working chain; evicting `a1` (recompute or
    /// swap) removes one tensor from the plateau.
    fn long_lifetime_state() -> (MState, NodeId, NodeId) {
        let mut b = GraphBuilder::new(DType::F32);
        let u1 = b.weight([512, 16], "u1");
        let v1 = b.weight([16, 512], "v1");
        let u2 = b.weight([512, 16], "u2");
        let v2 = b.weight([16, 512], "v2");
        let a1 = b.matmul(u1, v1);
        let a2 = b.matmul(u2, v2);
        let c = b.add_op(a1, a2);
        let mut cur = b.gelu(c);
        for _ in 0..6 {
            cur = b.gelu(cur);
        }
        let late1 = b.add_op(cur, a2);
        let mut tail = b.gelu(late1);
        for _ in 0..6 {
            tail = b.gelu(tail);
        }
        let late2 = b.add_op(tail, a1);
        let g = b.finish();
        let ctx = EvalContext::default();
        (MState::initial(g, &ctx), a1, late2)
    }

    #[test]
    fn remat_generates_and_applies() {
        let (state, a, late) = long_lifetime_state();
        let mut cands = Vec::new();
        generate(&state, &RuleConfig::default(), &mut cands);
        assert!(
            cands.iter().any(|t| matches!(t, Transform::Remat { producer, .. } if *producer == a)),
            "multi-user hot tensor must be a remat site: {cands:?}"
        );
        let applied = apply_remat(&state, a, late).unwrap();
        applied.base.validate().unwrap();
        assert_eq!(applied.base.len(), state.base.len() + 1);
        // `late` no longer reads `a` directly.
        assert!(!applied.base.pre(late).contains(&a));
    }

    #[test]
    fn remat_then_deremat_roundtrip() {
        let (state, a, late) = long_lifetime_state();
        let ctx = EvalContext::default();
        let applied = apply_remat(&state, a, late).unwrap();
        let mid = MState::from_applied(applied, &state, &ctx).unwrap();
        // The clone and the original are duplicates: deremat available.
        let mut cands = Vec::new();
        generate(&mid, &RuleConfig::default(), &mut cands);
        let dr = cands
            .iter()
            .find_map(|t| match t {
                Transform::DeRemat { keep, drop } => Some((*keep, *drop)),
                _ => None,
            })
            .expect("deremat candidate after remat");
        let back = apply_deremat(&mid, dr.0, dr.1).unwrap();
        back.base.validate().unwrap();
        assert_eq!(back.base.len(), state.base.len());
        assert_eq!(
            magis_graph::algo::graph_hash(&back.base),
            magis_graph::algo::graph_hash(&state.base),
            "deremat undoes remat up to isomorphism"
        );
    }

    #[test]
    fn swap_inserts_store_load_pair_and_deswap_removes() {
        let (state, a, late) = long_lifetime_state();
        let ctx = EvalContext::default();
        let applied = apply_swap(&state, a, late).unwrap();
        applied.base.validate().unwrap();
        assert_eq!(applied.base.len(), state.base.len() + 2);
        let mid = MState::from_applied(applied, &state, &ctx).unwrap();
        let load = mid
            .base
            .node_ids()
            .find(|&v| matches!(mid.base.node(v).op, OpKind::Load))
            .unwrap();
        let back = apply_deswap(&mid, load).unwrap();
        back.base.validate().unwrap();
        assert_eq!(
            magis_graph::algo::graph_hash(&back.base),
            magis_graph::algo::graph_hash(&state.base)
        );
    }

    #[test]
    fn swap_reduces_peak_memory() {
        let (state, a, late) = long_lifetime_state();
        let ctx = EvalContext::default();
        let applied = apply_swap(&state, a, late).unwrap();
        let swapped = MState::from_applied(applied, &state, &ctx).unwrap();
        assert!(
            swapped.eval.peak_bytes < state.eval.peak_bytes,
            "swap must shrink peak: {} vs {}",
            swapped.eval.peak_bytes,
            state.eval.peak_bytes
        );
    }

    #[test]
    fn remat_reduces_peak_memory() {
        let (state, a, late) = long_lifetime_state();
        let ctx = EvalContext::default();
        let applied = apply_remat(&state, a, late).unwrap();
        let r = MState::from_applied(applied, &state, &ctx).unwrap();
        assert!(
            r.eval.peak_bytes < state.eval.peak_bytes,
            "remat must shrink peak: {} vs {}",
            r.eval.peak_bytes,
            state.eval.peak_bytes
        );
        assert!(r.eval.latency > state.eval.latency, "remat re-pays compute");
    }

    #[test]
    fn hotspot_filter_prunes_candidates() {
        let (state, _, _) = long_lifetime_state();
        let mut with = Vec::new();
        generate(&state, &RuleConfig::default(), &mut with);
        let mut without = Vec::new();
        let cfg = RuleConfig { hotspot_filter: false, ..RuleConfig::default() };
        generate(&state, &cfg, &mut without);
        assert!(without.len() >= with.len());
    }

    #[test]
    fn stale_targets_error() {
        let (state, a, late) = long_lifetime_state();
        let applied = apply_remat(&state, a, late).unwrap();
        let ctx = EvalContext::default();
        let mid = MState::from_applied(applied, &state, &ctx).unwrap();
        // Re-applying the same remat fails: `late` no longer reads `a`.
        assert!(apply_remat(&mid, a, late).is_err());
    }
}
