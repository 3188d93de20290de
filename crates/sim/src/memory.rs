//! Memory profiling of a scheduled graph: tensor lifetimes, per-step
//! active memory, peak usage, and memory hot-spots (§2.1 of the paper).
//!
//! Semantics mirror the paper's definitions with three practical
//! extensions needed by the optimizer:
//!
//! * **graph inputs** (weights, batch data) are resident from step 0 —
//!   re-ordering cannot cheat by deferring a weight "execution";
//! * **aliases** ([`OpKind::Reshape`]) share their input's storage and
//!   extend its lifetime instead of allocating;
//! * **swapped tensors**: a [`OpKind::Store`] output lives in host
//!   memory (0 device bytes); the matching [`OpKind::Load`] allocates a
//!   fresh device tensor;
//! * a node with [`alloc_with`](magis_graph::graph::Node::alloc_with)
//!   allocates when its anchor runs — fission merge outputs accumulate
//!   across sequential parts and must be counted for the whole region
//!   (Fig. 2 (d)/(e)).

use magis_graph::GraphView;
use crate::cost::CostError;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::OpKind;
use std::collections::BTreeSet;

/// Result of [`memory_profile`].
#[derive(Debug, Clone)]
pub struct MemoryProfile {
    /// Peak device memory in bytes (`M_peak`).
    pub peak_bytes: u64,
    /// Active device memory during each schedule step (`M_i`).
    pub step_bytes: Vec<u64>,
    /// Memory hot-spots `H`: storage roots alive at some peak step.
    pub hotspots: BTreeSet<NodeId>,
}

/// Resolves the storage root of a node: follows alias (reshape) chains
/// to the tensor that actually owns memory.
pub fn storage_root(g: &Graph, mut v: NodeId) -> NodeId {
    while g.node(v).op.is_alias() {
        v = g.pre(v)[0];
    }
    v
}

/// Device bytes owned by a node's output storage (0 for aliases and
/// host-resident `Store` outputs).
pub fn device_bytes(g: &Graph, v: NodeId) -> u64 {
    let n = g.node(v);
    if n.op.is_alias() || matches!(n.op, OpKind::Store) {
        0
    } else {
        n.size_bytes()
    }
}

/// Computes the memory profile of `g` executed in `order`.
///
/// `order` must be a topological order over all live nodes of `g`
/// (checked in debug builds).
///
/// # Panics
///
/// Panics if `order` has the wrong length or references dead nodes.
pub fn memory_profile(g: &Graph, order: &[NodeId]) -> MemoryProfile {
    assert_eq!(order.len(), g.len(), "schedule must cover the graph");
    debug_assert!(magis_graph::algo::is_topo_order(g, order), "schedule must be topological");
    // A conservation violation here means the graph or schedule is
    // already corrupt; panicking beats the silent `as u64` wrap this
    // used to produce. Callers that must survive corruption use
    // `memory_profile_checked`.
    profile_impl(g, order).expect("memory accounting conserved")
}

/// [`memory_profile`] with every failure mode surfaced as a typed
/// [`CostError`]: schedule/graph coverage mismatch, accumulator
/// overflow, and negative running usage (conservation violations) all
/// return errors instead of panicking or wrapping.
pub fn memory_profile_checked(g: &Graph, order: &[NodeId]) -> Result<MemoryProfile, CostError> {
    check_coverage(g, order)?;
    profile_impl(g, order)
}

/// [`memory_profile_checked`] that additionally returns the per-root
/// [`Lifetimes`] table the profile was swept from, so a later
/// evaluation of a *derived* graph can update it incrementally with
/// [`crate::delta::memory_profile_delta`].
pub fn memory_profile_lifetimes(
    g: &Graph,
    order: &[NodeId],
) -> Result<(MemoryProfile, Lifetimes), CostError> {
    check_coverage(g, order)?;
    profile_lifetimes_impl(g, order)
}

/// Exact schedule-coverage validation shared by every checked profiling
/// entry point: right length, only live nodes, no duplicates.
pub(crate) fn check_coverage(g: &Graph, order: &[NodeId]) -> Result<(), CostError> {
    if order.len() != g.len() {
        return Err(CostError::BadSchedule { expected: g.len(), got: order.len() });
    }
    let mut seen = vec![false; g.capacity()];
    for &v in order {
        // Dead references and duplicates are both coverage defects:
        // either way some live node is necessarily missing, and the
        // sweep below would index with an unscheduled node's position.
        if !g.contains(v) || std::mem::replace(&mut seen[v.index()], true) {
            return Err(CostError::BadSchedule { expected: g.len(), got: order.len() });
        }
    }
    Ok(())
}

/// One end of a storage root's lifetime, recorded by *provenance*
/// rather than by step index: which schedule event pins this end.
///
/// Positions in a schedule are distinct, so the minimizing/maximizing
/// node of a lifetime formula is unique — which makes this
/// representation canonical for a given `(graph, order)` pair, and
/// lets an unchanged root's lifetime be *re-based* onto a different
/// schedule by looking the node up in the new position table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// The schedule boundary: step 0 for allocation (graph inputs are
    /// resident from the start), the last step for free (terminal
    /// tensors stay live to the end).
    Boundary,
    /// Pinned by a specific node's schedule position.
    At(NodeId),
}

/// Per-storage-root tensor lifetimes of one scheduled graph, with
/// endpoints recorded by node provenance (the internal `Endpoint`
/// type: a boundary or a pinning node) so they survive
/// re-basing onto a spliced schedule. Produced by
/// [`memory_profile_lifetimes`], consumed by
/// [`crate::delta::memory_profile_delta`].
#[derive(Debug, Clone, PartialEq)]
pub struct Lifetimes {
    /// Schedule length this table was computed against.
    pub(crate) steps: usize,
    /// Device bytes per root, indexed by node capacity; 0 = not a
    /// sized storage root.
    pub(crate) bytes: Vec<u64>,
    /// Allocation endpoint, valid where `bytes > 0`.
    pub(crate) alloc: Vec<Endpoint>,
    /// Free endpoint (inclusive), valid where `bytes > 0`.
    pub(crate) free: Vec<Endpoint>,
}

impl Lifetimes {
    /// Schedule length the table was computed against.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of sized storage roots tracked.
    pub fn sized_roots(&self) -> usize {
        self.bytes.iter().filter(|&&b| b > 0).count()
    }

    pub(crate) fn empty() -> Lifetimes {
        Lifetimes { steps: 0, bytes: Vec::new(), alloc: Vec::new(), free: Vec::new() }
    }

    pub(crate) fn with_capacity(steps: usize, cap: usize) -> Lifetimes {
        Lifetimes {
            steps,
            bytes: vec![0; cap],
            alloc: vec![Endpoint::Boundary; cap],
            free: vec![Endpoint::Boundary; cap],
        }
    }

    /// Recomputes the lifetime entry of storage root `root` from the
    /// graph, visiting exactly the nodes that share its storage (the
    /// alias closure). Mirrors the accumulation in
    /// [`compute_lifetimes`] restricted to one root.
    pub(crate) fn recompute_root(&mut self, g: &Graph, pos: &[usize], root: NodeId) {
        let r = root.index();
        let bytes = device_bytes(g, root);
        self.bytes[r] = bytes;
        if bytes == 0 {
            return;
        }
        let node = g.node(root);
        // Allocation: inputs are resident from step 0; anchored roots
        // allocate at their anchor; everything else at its own step.
        let (mut alloc_step, mut alloc_ep) = if node.op.is_input() {
            (0, Endpoint::Boundary)
        } else if let Some(anchor) = node.alloc_with {
            if pos[anchor.index()] < pos[r] {
                (pos[anchor.index()], Endpoint::At(anchor))
            } else {
                (pos[r], Endpoint::At(root))
            }
        } else {
            (pos[r], Endpoint::At(root))
        };
        let mut free_step = 0usize;
        let mut free_ep = Endpoint::At(root);
        let mut terminal = false;
        // Members: the root plus every alias chained off it.
        let mut stack = vec![root];
        let mut visited = BTreeSet::new();
        while let Some(v) = stack.pop() {
            if !visited.insert(v) {
                continue;
            }
            if pos[v.index()] < alloc_step {
                alloc_step = pos[v.index()];
                alloc_ep = Endpoint::At(v);
            }
            if pos[v.index()] >= free_step {
                free_step = pos[v.index()];
                free_ep = Endpoint::At(v);
            }
            // Raw successor list (may repeat a node once per edge):
            // the updates below are strict-inequality accumulations
            // over unique schedule positions, so duplicates and
            // ordering cannot change the outcome.
            let mut has_succ = false;
            for &s in g.node(v).succs() {
                has_succ = true;
                if pos[s.index()] > free_step {
                    free_step = pos[s.index()];
                    free_ep = Endpoint::At(s);
                }
                // Aliases of a member share the root's storage.
                if g.node(s).op.is_alias() && g.pre(s)[0] == v {
                    stack.push(s);
                }
            }
            // Terminal tensors (graph outputs) stay live to the end.
            if !has_succ {
                terminal = true;
            }
        }
        if terminal {
            free_ep = Endpoint::Boundary;
        }
        self.alloc[r] = alloc_ep;
        self.free[r] = free_ep;
    }
}

/// Computes the full per-root lifetime table of `g` under `order`.
pub(crate) fn compute_lifetimes(g: &Graph, order: &[NodeId], pos: &[usize]) -> Lifetimes {
    let steps = order.len();
    let cap = g.capacity();
    let mut lt = Lifetimes::with_capacity(steps, cap);
    // Accumulated step values (used only to pick unique endpoints; the
    // stored representation is the endpoint provenance).
    let mut alloc_step = vec![usize::MAX; cap];
    let mut free_step = vec![0usize; cap];
    let mut terminal = vec![false; cap];

    for &v in order {
        let root = storage_root(g, v);
        let r = root.index();
        let bytes = device_bytes(g, root);
        if bytes == 0 {
            continue;
        }
        if lt.bytes[r] == 0 {
            lt.bytes[r] = bytes;
            // Allocation: inputs are resident from step 0; anchored
            // roots allocate at their anchor; everything else at their
            // own step.
            let node = g.node(root);
            let (s, ep) = if node.op.is_input() {
                (0, Endpoint::Boundary)
            } else if let Some(anchor) = node.alloc_with {
                if pos[anchor.index()] < pos[r] {
                    (pos[anchor.index()], Endpoint::At(anchor))
                } else {
                    (pos[r], Endpoint::At(root))
                }
            } else {
                (pos[r], Endpoint::At(root))
            };
            alloc_step[r] = s;
            lt.alloc[r] = ep;
        }
        if pos[v.index()] < alloc_step[r] {
            alloc_step[r] = pos[v.index()];
            lt.alloc[r] = Endpoint::At(v);
        }
        // Uses of `v` pin the root's storage.
        if pos[v.index()] >= free_step[r] && !terminal[r] {
            free_step[r] = pos[v.index()];
            lt.free[r] = Endpoint::At(v);
        }
        // Raw successor list: strict-inequality max over unique
        // positions, so per-edge duplicates cannot change the result.
        for &s in g.node(v).succs() {
            if pos[s.index()] > free_step[r] && !terminal[r] {
                free_step[r] = pos[s.index()];
                lt.free[r] = Endpoint::At(s);
            }
        }
        // Terminal tensors (graph outputs) stay live to the end.
        if g.node(v).succs().is_empty() {
            terminal[r] = true;
            lt.free[r] = Endpoint::Boundary;
        }
    }
    lt
}

/// Resolves a lifetime table against a position map and sweeps it into
/// a [`MemoryProfile`], with conservation enforced: the running total
/// must stay within `i64` and never go negative. (Byte counts fit
/// `i64` by construction of `TensorMeta`, but a corrupted graph could
/// still overflow the sum.)
pub(crate) fn sweep(lt: &Lifetimes, pos: &[usize]) -> Result<MemoryProfile, CostError> {
    let steps = lt.steps;
    if steps == 0 {
        return Ok(MemoryProfile {
            peak_bytes: 0,
            step_bytes: Vec::new(),
            hotspots: BTreeSet::new(),
        });
    }
    let cap = lt.bytes.len();
    let resolve_alloc = |r: usize| match lt.alloc[r] {
        Endpoint::Boundary => 0,
        Endpoint::At(n) => pos[n.index()],
    };
    let resolve_free = |r: usize| match lt.free[r] {
        Endpoint::Boundary => steps - 1,
        Endpoint::At(n) => pos[n.index()],
    };
    let mut delta = vec![0i64; steps + 1];
    for r in 0..cap {
        if lt.bytes[r] > 0 {
            let (a, f) = (resolve_alloc(r), resolve_free(r));
            let bytes =
                i64::try_from(lt.bytes[r]).map_err(|_| CostError::MemoryOverflow { step: a })?;
            delta[a] =
                delta[a].checked_add(bytes).ok_or(CostError::MemoryOverflow { step: a })?;
            delta[f + 1] = delta[f + 1]
                .checked_sub(bytes)
                .ok_or(CostError::MemoryOverflow { step: f + 1 })?;
        }
    }
    let mut step_bytes = Vec::with_capacity(steps);
    let mut cur: i64 = 0;
    for (i, d) in delta.iter().take(steps).enumerate() {
        cur = cur.checked_add(*d).ok_or(CostError::MemoryOverflow { step: i })?;
        if cur < 0 {
            return Err(CostError::NegativeUsage { step: i, value: cur });
        }
        step_bytes.push(cur as u64);
    }
    let peak_bytes = step_bytes.iter().copied().max().unwrap_or(0);

    let mut hotspots = BTreeSet::new();
    for (i, &m) in step_bytes.iter().enumerate() {
        if m == peak_bytes {
            for r in 0..cap {
                if lt.bytes[r] > 0 && resolve_alloc(r) <= i && i <= resolve_free(r) {
                    hotspots.insert(NodeId::from_index(r));
                }
            }
        }
    }
    Ok(MemoryProfile { peak_bytes, step_bytes, hotspots })
}

pub(crate) fn position_table(g: &Graph, order: &[NodeId]) -> Vec<usize> {
    let mut pos = vec![usize::MAX; g.capacity()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    pos
}

fn profile_lifetimes_impl(
    g: &Graph,
    order: &[NodeId],
) -> Result<(MemoryProfile, Lifetimes), CostError> {
    if order.is_empty() {
        return Ok((
            MemoryProfile { peak_bytes: 0, step_bytes: Vec::new(), hotspots: BTreeSet::new() },
            Lifetimes::empty(),
        ));
    }
    let pos = position_table(g, order);
    let lt = compute_lifetimes(g, order, &pos);
    let profile = sweep(&lt, &pos)?;
    Ok((profile, lt))
}

fn profile_impl(g: &Graph, order: &[NodeId]) -> Result<MemoryProfile, CostError> {
    profile_lifetimes_impl(g, order).map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::op::{InputKind, MergeKind, UnaryKind};
    use magis_graph::tensor::{DType, TensorMeta};

    const KB: u64 = 1024;

    /// Chain x -> a -> b -> c of [256] f32 tensors (1 KiB each).
    fn chain(len: usize) -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256], "x");
        for _ in 0..len {
            cur = b.relu(cur);
        }
        b.finish()
    }

    #[test]
    fn chain_peak_is_two_tensors() {
        let g = chain(3);
        let order = topo_order(&g);
        let p = memory_profile(&g, &order);
        // During each relu: its input + its output = 2 KiB... except the
        // final tensor is terminal (lives to the end), which still gives
        // a 2 KiB peak.
        assert_eq!(p.peak_bytes, 2 * KB);
    }

    #[test]
    fn fanout_keeps_tensor_alive() {
        // x feeds a and b; c = a + b. During c: a, b, c (x freed after b).
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([256], "x");
        let a = bld.relu(x);
        let b2 = bld.gelu(x);
        let c = bld.add_op(a, b2);
        let g = bld.finish();
        let order = vec![x, a, b2, c];
        let p = memory_profile(&g, &order);
        // Step of b2: x, a, b2 alive = 3 KiB; step of c: a, b2, c = 3 KiB.
        assert_eq!(p.peak_bytes, 3 * KB);
        assert!(p.hotspots.len() >= 3);
    }

    #[test]
    fn inputs_resident_from_start() {
        // A weight used only by the last op still occupies memory at
        // step 0.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([256], "x");
        let w = bld.weight([256], "w");
        let a = bld.relu(x);
        let b2 = bld.relu(a);
        let y = bld.mul(b2, w);
        let g = bld.finish();
        let order = vec![x, a, b2, w, y];
        let p = memory_profile(&g, &order);
        // Step 0 (x runs): x + w resident.
        assert_eq!(p.step_bytes[0], 2 * KB);
    }

    #[test]
    fn alias_extends_input_lifetime_without_alloc() {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([256], "x");
        let a = bld.relu(x);
        let r = bld.reshape(a, [16, 16]);
        let y = bld.relu(r);
        let g = bld.finish();
        let order = vec![x, a, r, y];
        let p = memory_profile(&g, &order);
        // At y: a's storage (via alias r) + y = 2 KiB; reshape adds none.
        assert_eq!(p.step_bytes[3], 2 * KB);
        assert_eq!(p.peak_bytes, 2 * KB);
    }

    #[test]
    fn store_frees_device_memory_until_load() {
        let mut txn = magis_graph::GraphTxn::begin(&Graph::new());
        let meta = TensorMeta::new([256], DType::F32);
        let x = txn.add_input(InputKind::Activation, meta.clone(), "x");
        let a = txn.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let st = txn.add(OpKind::Store, &[a]).unwrap();
        // Long stretch of unrelated work.
        let b1 = txn.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b2 = txn.add(OpKind::Unary(UnaryKind::Relu), &[b1]).unwrap();
        let ld = txn.add(OpKind::Load, &[st]).unwrap();
        let c = txn.add(OpKind::Binary(magis_graph::op::BinaryKind::Add), &[b2, ld]).unwrap();
        let g = txn.commit().0;
        let order = vec![x, a, st, b1, b2, ld, c];
        let p = memory_profile(&g, &order);
        // During b2 (step 4): device holds b1 and b2 — `a` was stored
        // out after step 2 and not yet loaded, x freed after b1: 2 KiB.
        assert_eq!(p.step_bytes[4], 2 * KB);
        use magis_graph::graph::Graph;
        use magis_graph::op::OpKind;
        let _ = c;
    }

    #[test]
    fn alloc_with_anchor_counts_early() {
        // Merge output anchored at the region head is alive from there.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([256], "x");
        let a = bld.relu(x); // region head (the representative part)
        let m = bld.merge(a, MergeKind::Concat, 0, 4);
        let mut txn = magis_graph::GraphTxn::begin(&bld.finish());
        txn.set_alloc_with(m, a);
        let g = txn.commit().0;
        let order = vec![x, a, m];
        let p = memory_profile(&g, &order);
        // During a (step 1): x (1K) + a (1K) + merge output (4K) = 6 KiB.
        assert_eq!(p.step_bytes[1], 6 * KB);
    }

    #[test]
    fn hotspots_at_peak_only() {
        let g = chain(5);
        let order = topo_order(&g);
        let p = memory_profile(&g, &order);
        for &h in &p.hotspots {
            assert!(g.contains(h));
        }
        assert!(!p.hotspots.is_empty());
        assert_eq!(p.step_bytes.len(), g.len());
    }

    #[test]
    #[should_panic(expected = "schedule must cover")]
    fn wrong_length_schedule_panics() {
        let g = chain(2);
        memory_profile(&g, &[]);
    }
}
