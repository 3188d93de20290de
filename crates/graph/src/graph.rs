//! The computation graph: a DAG of operators over tensors.
//!
//! Nodes live in a persistent, copy-on-write arena: slots are grouped
//! into fixed-size pages, each page behind an [`Arc`], and the page
//! table itself behind another [`Arc`]. Cloning a [`Graph`] is O(1) —
//! it bumps one reference count — and the first write to a page after a
//! clone copies only that page (structural sharing). [`NodeId`]s stay
//! stable across the graph rewrites the optimizer performs
//! (re-materialization adds nodes, de-re-materialization removes them,
//! fission overlays both), so a candidate graph shares every untouched
//! page with its parent.
//!
//! Removed slots are tombstoned and deterministically reused: a slot
//! freed by a committed [`GraphTxn`](crate::txn::GraphTxn) returns to a
//! free list (smallest slot first) and the next added node takes it, so
//! long rewrite chains no longer grow [`Graph::capacity`] without
//! bound. Slots freed *inside* a transaction only become reusable after
//! the transaction commits, so within one rewrite an id never refers to
//! two different nodes — the invariant every parent-vs-child delta
//! comparison in the incremental pipeline relies on.
//!
//! Reads go through the [`GraphView`] trait;
//! mutation from outside this crate goes through
//! [`GraphTxn`](crate::txn::GraphTxn). The direct mutators on [`Graph`]
//! are `pub(crate)` plumbing for the builder, autodiff, and the
//! transaction layer.

use crate::op::{InputKind, OpError, OpKind};
use crate::tensor::TensorMeta;
use crate::view::GraphView;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a node within one [`Graph`] (and its clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Arena slot of the node; dense enough for bitsets sized by
    /// [`Graph::capacity`](crate::view::GraphView::capacity).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from an arena slot (for deserialization/tests).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node of the computation graph: one operator plus its output tensor.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator.
    pub op: OpKind,
    /// Metadata of the single output tensor.
    pub meta: TensorMeta,
    /// Optional human-readable label.
    pub name: String,
    /// Ordered data inputs (duplicates allowed, e.g. `x * x`).
    inputs: Vec<NodeId>,
    /// Extra lifetime/ordering dependencies that carry no data. Used by
    /// the fission overlay: a region input must stay resident until the
    /// region's merge node runs even though no tensor flows on the edge.
    keepalive: Vec<NodeId>,
    /// Reverse edges (data + keepalive), with multiplicity.
    succs: Vec<NodeId>,
    /// Sequential-repeat multiplier for the cost model: a node inside an
    /// `n`-way fission region executes `n` times (once per part).
    pub cost_repeat: u64,
    /// If set, the output buffer is allocated when the referenced node
    /// executes rather than when this node does. Used for fission merge
    /// outputs, which accumulate across parts (alive for the whole
    /// region), cf. Fig. 2 (d)/(e) of the paper.
    pub alloc_with: Option<NodeId>,
}

impl Node {
    /// Ordered data inputs.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Keepalive-only dependencies.
    #[inline]
    pub fn keepalive(&self) -> &[NodeId] {
        &self.keepalive
    }

    /// Successors with multiplicity (data and keepalive uses).
    #[inline]
    pub fn succs(&self) -> &[NodeId] {
        &self.succs
    }

    /// Output tensor size in bytes (`|v|` in the paper).
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.meta.size_bytes()
    }

    /// The output metadata after a `parts`-way fission along `dim`
    /// (1-based output dimension; a reduce axis, `dim < 0`, keeps it).
    fn split_meta(&self, parts: u64, dim: i32) -> TensorMeta {
        match dim {
            d if d > 0 => TensorMeta::new(self.meta.shape.split_dim((d - 1) as usize, parts), self.meta.dtype),
            _ => self.meta.clone(),
        }
    }

    /// The scale step of a fission overlay: `parts` times the repeats,
    /// on the split metadata.
    pub(crate) fn scale(&mut self, parts: u64, dim: i32) {
        self.meta = self.split_meta(parts, dim);
        self.cost_repeat *= parts;
    }

    /// Whether `self` is what [`Self::scale`] makes of `source`.
    pub(crate) fn is_scaled(&self, source: &Node, parts: u64, dim: i32) -> bool {
        Some(self.cost_repeat) == source.cost_repeat.checked_mul(parts)
            && (&self.inputs, &self.keepalive, &self.succs) == (&source.inputs, &source.keepalive, &source.succs)
            && (&self.op, &self.name, self.alloc_with) == (&source.op, &source.name, source.alloc_with)
            && self.meta == source.split_meta(parts, dim)
    }
}

/// Errors from graph construction and rewriting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Shape inference failed.
    Op(OpError),
    /// A referenced node id is absent (removed or foreign).
    MissingNode(NodeId),
    /// Removal requested for a node that still has users.
    HasUsers(NodeId, usize),
    /// The graph contains a cycle (validation only; construction cannot
    /// create cycles because edges always point to existing nodes).
    Cycle,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Op(e) => write!(f, "operator error: {e}"),
            GraphError::MissingNode(id) => write!(f, "missing node {id}"),
            GraphError::HasUsers(id, n) => write!(f, "node {id} still has {n} users"),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Op(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OpError> for GraphError {
    fn from(e: OpError) -> Self {
        GraphError::Op(e)
    }
}

/// log2 of the page size: 32 slots per page. Small enough that a
/// rewrite touching a handful of nodes copies a handful of pages; big
/// enough that the page table stays short.
const PAGE_BITS: usize = 5;
/// Slots per page.
pub(crate) const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_LEN - 1;

/// One page of node slots. The inner `Arc<Node>` makes copying a page
/// on first write O(page) reference bumps plus one deep node copy per
/// node actually mutated.
type Page = Vec<Option<Arc<Node>>>;

/// A DNN computation graph (`G` in the paper; see Table 1 for the
/// notation this API mirrors).
///
/// Cloning is O(1): clones share all node pages copy-on-write. Reads go
/// through [`GraphView`]; mutation from other crates goes through
/// [`GraphTxn`](crate::txn::GraphTxn).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Page table, shared structurally between clones.
    pages: Arc<Vec<Arc<Page>>>,
    /// Slot watermark: one greater than the largest slot ever used.
    slots: usize,
    /// Number of live nodes.
    alive: usize,
    /// Reusable tombstoned slots, sorted descending so `pop` yields the
    /// smallest. Always exactly the tombstones of a committed graph — a
    /// pure function of the occupied slot set, which keeps checkpoint
    /// kill/resume trajectory-exact.
    free: Vec<u32>,
    /// Slots freed since the last [`Graph::seal_frees`]; not reusable
    /// yet (a transaction must never reuse a slot it freed itself).
    pending_free: Vec<u32>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Direct slot read: `Some` for live nodes, `None` for tombstones
    /// and out-of-range slots. The [`GraphView`] primitive.
    #[inline]
    pub(crate) fn slot_raw(&self, i: usize) -> Option<&Node> {
        self.slot_shared(i).map(|node| &**node)
    }

    /// [`Self::slot_raw`] as the shared allocation: a clone of this
    /// graph that has not rewritten the node holds the same `Arc`.
    #[inline]
    pub(crate) fn slot_shared(&self, i: usize) -> Option<&Arc<Node>> {
        match self.pages.get(i >> PAGE_BITS) {
            Some(page) => match page.get(i & PAGE_MASK) {
                Some(Some(node)) => Some(node),
                _ => None,
            },
            None => None,
        }
    }

    #[inline]
    pub(crate) fn len_raw(&self) -> usize {
        self.alive
    }

    #[inline]
    pub(crate) fn capacity_raw(&self) -> usize {
        self.slots
    }

    /// Mutable access to a page, copying it first if shared.
    fn page_mut(&mut self, pi: usize) -> &mut Page {
        let pages = Arc::make_mut(&mut self.pages);
        Arc::make_mut(&mut pages[pi])
    }

    /// Mutably borrows a node (op/meta/name only; use the rewiring
    /// methods to change edges).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let i = id.index();
        let slot = self.page_mut(i >> PAGE_BITS)[i & PAGE_MASK].as_mut().expect("live node");
        Arc::make_mut(slot)
    }

    /// Puts the shared allocation `node` in the live slot of `id`; it
    /// must have the edges of the node it replaces.
    pub(crate) fn install(&mut self, id: NodeId, node: Arc<Node>) {
        let i = id.index();
        let slot = self.page_mut(i >> PAGE_BITS)[i & PAGE_MASK].as_mut().expect("live node");
        *slot = node;
    }

    /// Adds a graph input node with explicit tensor metadata.
    pub(crate) fn add_input(&mut self, kind: InputKind, meta: TensorMeta, name: &str) -> NodeId {
        self.push(Node {
            op: OpKind::Input(kind),
            meta,
            name: name.to_string(),
            inputs: Vec::new(),
            keepalive: Vec::new(),
            succs: Vec::new(),
            cost_repeat: 1,
            alloc_with: None,
        })
    }

    /// Adds an operator node, inferring its output metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is dead or shape inference fails.
    pub(crate) fn add(&mut self, op: OpKind, inputs: &[NodeId]) -> Result<NodeId, GraphError> {
        let metas = self.collect_metas(inputs)?;
        let meta = op.infer(&metas)?;
        Ok(self.add_unchecked(op, inputs, meta))
    }

    /// Adds an operator node with explicit output metadata (used where
    /// inference is ambiguous, e.g. `Conv2dGradWeight` kernel sizes).
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is dead.
    pub(crate) fn add_with_meta(
        &mut self,
        op: OpKind,
        inputs: &[NodeId],
        meta: TensorMeta,
    ) -> Result<NodeId, GraphError> {
        if let Some(&dead) = inputs.iter().find(|&&i| !self.contains(i)) {
            return Err(GraphError::MissingNode(dead));
        }
        Ok(self.add_unchecked(op, inputs, meta))
    }

    fn collect_metas(&self, inputs: &[NodeId]) -> Result<Vec<TensorMeta>, GraphError> {
        inputs
            .iter()
            .map(|&i| {
                if self.contains(i) {
                    Ok(self.node(i).meta.clone())
                } else {
                    Err(GraphError::MissingNode(i))
                }
            })
            .collect()
    }

    fn add_unchecked(&mut self, op: OpKind, inputs: &[NodeId], meta: TensorMeta) -> NodeId {
        let id = self.push(Node {
            op,
            meta,
            name: String::new(),
            inputs: inputs.to_vec(),
            keepalive: Vec::new(),
            succs: Vec::new(),
            cost_repeat: 1,
            alloc_with: None,
        });
        for &i in inputs {
            self.node_mut(i).succs.push(id);
        }
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let i = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                debug_assert!(self.slot_raw(i).is_none(), "free slot must be a tombstone");
                self.page_mut(i >> PAGE_BITS)[i & PAGE_MASK] = Some(Arc::new(node));
                i
            }
            None => {
                let i = self.slots;
                let pages = Arc::make_mut(&mut self.pages);
                if (i >> PAGE_BITS) == pages.len() {
                    pages.push(Arc::new(Vec::with_capacity(PAGE_LEN)));
                }
                let last = pages.len() - 1;
                Arc::make_mut(&mut pages[last]).push(Some(Arc::new(node)));
                self.slots += 1;
                i
            }
        };
        self.alive += 1;
        NodeId(i as u32)
    }

    /// Sets a node's display name (builder sugar).
    pub(crate) fn set_name(&mut self, id: NodeId, name: &str) {
        self.node_mut(id).name = name.to_string();
    }

    /// Overwrites a node's output metadata. Used by the fission overlay
    /// to scale the shapes of a split region's representative part —
    /// downstream consumers must be scaled consistently by the caller.
    pub(crate) fn set_meta(&mut self, id: NodeId, meta: TensorMeta) {
        self.node_mut(id).meta = meta;
    }

    /// Sets the fission cost-repeat multiplier of a node.
    pub(crate) fn set_cost_repeat(&mut self, id: NodeId, repeat: u64) {
        assert!(repeat >= 1, "cost repeat must be at least 1");
        self.node_mut(id).cost_repeat = repeat;
    }

    /// Anchors a node's output allocation to another node's execution.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is not a live node.
    pub(crate) fn set_alloc_with(&mut self, id: NodeId, anchor: NodeId) {
        assert!(self.contains(anchor), "alloc anchor must be live");
        self.node_mut(id).alloc_with = Some(anchor);
    }

    /// Adds a keepalive (lifetime/ordering-only) edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is dead.
    pub(crate) fn add_keepalive(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        if !self.contains(from) {
            return Err(GraphError::MissingNode(from));
        }
        if !self.contains(to) {
            return Err(GraphError::MissingNode(to));
        }
        self.node_mut(to).keepalive.push(from);
        self.node_mut(from).succs.push(to);
        Ok(())
    }

    /// Adds the keepalive edge `u → m` for every pair of `from × to`,
    /// checking and unsharing each endpoint once instead of once per
    /// pair; vectors and error are those of the pairwise loop (contract
    /// on [`GraphTxn::add_keepalive_fan`](crate::txn::GraphTxn::add_keepalive_fan)).
    pub(crate) fn add_keepalive_fan(
        &mut self,
        from: &[NodeId],
        to: &[NodeId],
    ) -> Result<(), GraphError> {
        if from.is_empty() || to.is_empty() {
            return Ok(());
        }
        // Pair order is (from[0], to[..]), (from[1], to[..]), …
        let mut endpoints = from[..1].iter().chain(to).chain(&from[1..]);
        if let Some(&dead) = endpoints.find(|&&v| !self.contains(v)) {
            return Err(GraphError::MissingNode(dead));
        }
        // A target listed k times receives every source k times in a row.
        let mut targets = to.to_vec();
        targets.sort_unstable();
        for run in targets.chunk_by(|a, b| a == b) {
            let keepalive = &mut self.node_mut(run[0]).keepalive;
            keepalive.reserve(from.len() * run.len());
            match run.len() {
                1 => keepalive.extend_from_slice(from),
                k => from.iter().for_each(|&u| keepalive.extend(std::iter::repeat_n(u, k))),
            }
        }
        // A source listed k times receives the target list k times over;
        // visiting each occurrence in turn gives exactly that.
        for &u in from {
            self.node_mut(u).succs.extend_from_slice(to);
        }
        Ok(())
    }

    /// Replaces every use of `old` as an input of `user` with `new`
    /// (data and keepalive edges), maintaining reverse edges.
    ///
    /// # Panics
    ///
    /// Panics if `user` does not actually use `old`, or ids are dead.
    pub(crate) fn replace_input(&mut self, user: NodeId, old: NodeId, new: NodeId) {
        assert!(self.contains(new), "replacement node must be live");
        let mut replaced = 0usize;
        {
            let u = self.node_mut(user);
            for slot in u.inputs.iter_mut().chain(u.keepalive.iter_mut()) {
                if *slot == old {
                    *slot = new;
                    replaced += 1;
                }
            }
        }
        assert!(replaced > 0, "{user} does not use {old}");
        // Fix reverse edges: remove `replaced` occurrences of `user`
        // from old.succs, add them to new.succs.
        let old_succs = &mut self.node_mut(old).succs;
        let mut to_remove = replaced;
        old_succs.retain(|&s| {
            if s == user && to_remove > 0 {
                to_remove -= 1;
                false
            } else {
                true
            }
        });
        for _ in 0..replaced {
            self.node_mut(new).succs.push(user);
        }
    }

    /// Redirects *all* uses of `old` to `new`. `old` keeps its own inputs
    /// and can then be removed with [`Graph::remove`].
    pub(crate) fn redirect_uses(&mut self, old: NodeId, new: NodeId) {
        let users: Vec<NodeId> = self.suc(old);
        for user in users {
            if user != new {
                self.replace_input(user, old, new);
            }
        }
    }

    /// Removes a node that has no remaining users. The slot is
    /// tombstoned; it becomes reusable at the next [`Graph::seal_frees`]
    /// (transaction commit), never earlier.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::HasUsers`] if the node still has successors,
    /// or [`GraphError::MissingNode`] if already removed.
    pub(crate) fn remove(&mut self, id: NodeId) -> Result<(), GraphError> {
        if !self.contains(id) {
            return Err(GraphError::MissingNode(id));
        }
        let users = self.node(id).succs.len();
        if users > 0 {
            return Err(GraphError::HasUsers(id, users));
        }
        let i = id.index();
        let node = self.page_mut(i >> PAGE_BITS)[i & PAGE_MASK].take().expect("checked live");
        self.alive -= 1;
        self.pending_free.push(id.0);
        for p in node.inputs.iter().chain(node.keepalive.iter()) {
            if self.contains(*p) {
                let pn = self.node_mut(*p);
                if let Some(pos) = pn.succs.iter().position(|&s| s == id) {
                    pn.succs.swap_remove(pos);
                }
            }
        }
        Ok(())
    }

    /// Makes slots freed since the last seal reusable. Called by
    /// [`GraphTxn::commit`](crate::txn::GraphTxn::commit) and
    /// [`Graph::restore`]; after sealing, the free list is exactly the
    /// tombstone set in descending order.
    pub(crate) fn seal_frees(&mut self) {
        if self.pending_free.is_empty() {
            return;
        }
        self.free.append(&mut self.pending_free);
        self.free.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Number of slots currently reusable (sealed tombstones). Test and
    /// diagnostics hook for the slot-reuse contract.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Number of node pages backing this graph.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages physically shared (same allocation) with
    /// `other`. Two clones share all pages until one writes; a rewrite
    /// touching `k` nodes unshares at most `k` pages. The CoW
    /// clone-cost guard in CI asserts on this — a structural property —
    /// instead of wall-clock time.
    pub fn shared_pages_with(&self, other: &Graph) -> usize {
        self.pages.iter().zip(other.pages.iter()).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Whether `id` is live in both graphs as one shared allocation —
    /// neither has rewritten the node since they last held it together.
    /// The node-level twin of [`Self::shared_pages_with`].
    pub fn shares_node_with(&self, other: &Graph, id: NodeId) -> bool {
        let node = |g: &Graph| g.slot_shared(id.index()).map(Arc::as_ptr);
        node(self).is_some() && node(self) == node(other)
    }

    /// Validates structural invariants: edge symmetry, acyclicity, shape
    /// consistency. Used by tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        // Edge symmetry.
        for v in self.node_ids() {
            let n = self.node(v);
            for p in n.inputs.iter().chain(n.keepalive.iter()) {
                if !self.contains(*p) {
                    return Err(GraphError::MissingNode(*p));
                }
                let fwd = n.inputs.iter().filter(|&&x| x == *p).count()
                    + n.keepalive.iter().filter(|&&x| x == *p).count();
                let rev = self.node(*p).succs.iter().filter(|&&x| x == v).count();
                if fwd > rev {
                    return Err(GraphError::MissingNode(v));
                }
            }
            // Shape consistency (data inputs only).
            if !n.op.is_input() {
                let metas: Vec<TensorMeta> =
                    n.inputs.iter().map(|&i| self.node(i).meta.clone()).collect();
                if let Ok(meta) = n.op.infer(&metas) {
                    // `add_with_meta` nodes may deliberately differ only
                    // where inference is ambiguous (conv grad kernels).
                    if meta.shape.rank() == n.meta.shape.rank()
                        && !matches!(
                            n.op,
                            OpKind::Conv2dGradWeight(_)
                                | OpKind::Conv2dGradInput(_)
                                | OpKind::EmbeddingGrad { .. }
                        )
                        && meta != n.meta
                    {
                        return Err(GraphError::Op(OpError::BadAttr("stored meta mismatch")));
                    }
                }
            }
        }
        // Acyclicity via Kahn.
        if crate::algo::topo::topo_order(self).len() != self.len() {
            return Err(GraphError::Cycle);
        }
        Ok(())
    }

    /// Rebuilds a graph from per-slot node records (deserialization).
    ///
    /// `slots[i]` describes the node in arena slot `i`; `None` is a
    /// tombstone, so restored [`NodeId`]s match the serialized ones
    /// exactly. Successor lists are recomputed (data edges first in
    /// slot order, then keepalive edges, matching construction order),
    /// the free list is rebuilt from the tombstones (a restored graph
    /// is a committed state, so every tombstone is reusable), and the
    /// result is checked with [`Graph::validate`] so a corrupted
    /// serialization cannot produce a structurally invalid graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if an edge references a
    /// tombstoned slot, or any error [`Graph::validate`] reports.
    pub fn restore(slots: Vec<Option<NodeRecord>>) -> Result<Graph, GraphError> {
        let mut g = Graph::new();
        for rec in &slots {
            match rec {
                Some(r) => {
                    g.push(Node {
                        op: r.op.clone(),
                        meta: r.meta.clone(),
                        name: r.name.clone(),
                        inputs: r.inputs.clone(),
                        keepalive: r.keepalive.clone(),
                        succs: Vec::new(),
                        cost_repeat: r.cost_repeat,
                        alloc_with: r.alloc_with,
                    });
                }
                None => {
                    // Materialize the tombstone at this slot.
                    let i = g.slots;
                    let pages = Arc::make_mut(&mut g.pages);
                    if (i >> PAGE_BITS) == pages.len() {
                        pages.push(Arc::new(Vec::with_capacity(PAGE_LEN)));
                    }
                    let last = pages.len() - 1;
                    Arc::make_mut(&mut pages[last]).push(None);
                    g.slots += 1;
                    g.pending_free.push(i as u32);
                }
            }
        }
        g.seal_frees();
        let ids: Vec<NodeId> = g.node_ids().collect();
        for &v in &ids {
            for i in 0..g.node(v).inputs.len() {
                let p = g.node(v).inputs[i];
                if !g.contains(p) {
                    return Err(GraphError::MissingNode(p));
                }
                g.node_mut(p).succs.push(v);
            }
        }
        for &v in &ids {
            for i in 0..g.node(v).keepalive.len() {
                let p = g.node(v).keepalive[i];
                if !g.contains(p) {
                    return Err(GraphError::MissingNode(p));
                }
                g.node_mut(p).succs.push(v);
            }
        }
        for &v in &ids {
            if let Some(a) = g.node(v).alloc_with {
                if !g.contains(a) {
                    return Err(GraphError::MissingNode(a));
                }
            }
            if g.node(v).cost_repeat == 0 {
                return Err(GraphError::Op(OpError::BadAttr("cost_repeat must be at least 1")));
            }
        }
        g.validate()?;
        Ok(g)
    }
}

/// One node's serializable description, consumed by [`Graph::restore`]
/// and produced by graph deserializers (`io::from_record`).
#[derive(Debug, Clone)]
pub struct NodeRecord {
    /// The operator.
    pub op: OpKind,
    /// Output tensor metadata.
    pub meta: TensorMeta,
    /// Display name (may be empty).
    pub name: String,
    /// Ordered data inputs.
    pub inputs: Vec<NodeId>,
    /// Keepalive-only dependencies.
    pub keepalive: Vec<NodeId>,
    /// Fission cost-repeat multiplier (≥ 1).
    pub cost_repeat: u64,
    /// Allocation anchor, if any.
    pub alloc_with: Option<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, UnaryKind};
    use std::collections::BTreeSet;
    use crate::tensor::DType;

    fn meta(dims: &[u64]) -> TensorMeta {
        TensorMeta::new(dims, DType::F32)
    }

    fn diamond() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(&[4, 4]), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        (g, x, a, b, c)
    }

    #[test]
    fn build_and_query() {
        let (g, x, a, b, c) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.pre(c), &[a, b]);
        assert_eq!(g.suc(x), vec![a, b]);
        assert_eq!(g.graph_inputs(), vec![x]);
        assert_eq!(g.graph_outputs(), vec![c]);
        g.validate().unwrap();
    }

    #[test]
    fn set_inputs_outputs() {
        let (g, x, a, b, c) = diamond();
        let s: BTreeSet<NodeId> = [a, b].into_iter().collect();
        assert_eq!(g.set_inputs(&s), [x].into_iter().collect());
        assert_eq!(g.set_outputs(&s), [a, b].into_iter().collect());
        let s: BTreeSet<NodeId> = [a, b, c].into_iter().collect();
        assert_eq!(g.set_outputs(&s), [c].into_iter().collect());
    }

    #[test]
    fn duplicate_inputs_tracked() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(&[2]), "x");
        let sq = g.add(OpKind::Binary(BinaryKind::Mul), &[x, x]).unwrap();
        assert_eq!(g.use_count(x), 2);
        assert_eq!(g.suc(x), vec![sq]);
        g.validate().unwrap();
    }

    #[test]
    fn replace_input_rewires() {
        let (mut g, x, a, b, c) = diamond();
        let a2 = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        g.replace_input(c, a, a2);
        assert_eq!(g.pre(c), &[a2, b]);
        assert_eq!(g.use_count(a), 0);
        assert_eq!(g.suc(a2), vec![c]);
        g.validate().unwrap();
    }

    #[test]
    fn remove_requires_no_users() {
        let (mut g, _x, a, _b, c) = diamond();
        assert!(matches!(g.remove(a), Err(GraphError::HasUsers(_, 1))));
        g.remove(c).unwrap();
        g.remove(a).unwrap();
        assert_eq!(g.len(), 2);
        assert!(!g.contains(a));
        g.validate().unwrap();
    }

    #[test]
    fn redirect_uses_moves_all() {
        let (mut g, x, a, _b, c) = diamond();
        let a2 = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        g.redirect_uses(a, a2);
        assert_eq!(g.use_count(a), 0);
        assert!(g.pre(c).contains(&a2));
        g.remove(a).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn keepalive_edges() {
        let (mut g, x, _a, _b, c) = diamond();
        g.add_keepalive(x, c).unwrap();
        assert!(g.pre_all(c).contains(&x));
        assert_eq!(g.node(c).keepalive(), &[x]);
        assert_eq!(g.use_count(x), 3);
        g.validate().unwrap();
    }

    #[test]
    fn shape_inference_on_add() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(&[4, 8]), "x");
        let w = g.add_input(InputKind::Weight, meta(&[8, 16]), "w");
        let y = g
            .add(OpKind::MatMul { transpose_a: false, transpose_b: false }, &[x, w])
            .unwrap();
        assert_eq!(g.node(y).meta.shape.dims(), &[4, 16]);
        // Mismatched inner dim rejected.
        let bad = g.add(OpKind::MatMul { transpose_a: false, transpose_b: false }, &[x, x]);
        assert!(bad.is_err());
    }

    #[test]
    fn dead_input_rejected() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(&[2]), "x");
        let y = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        g.remove(y).unwrap();
        assert!(matches!(
            g.add(OpKind::Unary(UnaryKind::Relu), &[y]),
            Err(GraphError::MissingNode(_))
        ));
    }

    #[test]
    fn clone_is_independent() {
        let (g, _x, a, _b, _c) = diamond();
        let mut g2 = g.clone();
        g2.set_name(a, "renamed");
        assert_eq!(g.node(a).name, "");
        assert_eq!(g2.node(a).name, "renamed");
    }

    #[test]
    fn clone_shares_pages_until_write() {
        let (g, _x, a, _b, _c) = diamond();
        let mut g2 = g.clone();
        assert_eq!(g.shared_pages_with(&g2), g.page_count());
        g2.set_name(a, "renamed");
        // One page diverged, the rest still shared (single-page graph
        // here, so zero remain shared).
        assert!(g2.shared_pages_with(&g) < g.page_count() || g.page_count() == 0);
    }

    #[test]
    fn removed_slot_not_reused_before_seal() {
        let (mut g, x, _a, _b, c) = diamond();
        g.remove(c).unwrap();
        let cap = g.capacity();
        let y = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        // Unsealed: the fresh node takes a new slot, not c's.
        assert_eq!(y.index(), cap);
        assert_eq!(g.free_slots(), 0);
    }

    #[test]
    fn sealed_slot_reused_smallest_first() {
        let (mut g, x, a, _b, c) = diamond();
        g.remove(c).unwrap();
        g.remove(a).unwrap();
        g.seal_frees();
        assert_eq!(g.free_slots(), 2);
        let cap = g.capacity();
        let y = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        assert_eq!(y, a, "smallest freed slot reused first");
        let z = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        assert_eq!(z, c);
        assert_eq!(g.capacity(), cap, "no growth while free slots exist");
        g.validate().unwrap();
    }
}
