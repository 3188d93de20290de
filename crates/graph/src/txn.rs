//! Transactional graph mutation: [`GraphTxn`] and [`GraphDelta`].
//!
//! All mutation from outside `magis-graph` goes through a transaction:
//! `begin` takes an O(1) copy-on-write snapshot of the base graph,
//! mutators record a typed delta while rewriting the private copy, and
//! `commit` returns the new graph together with the delta — atomically
//! from the caller's perspective, since the base graph is never
//! touched. Dropping a transaction without committing discards the
//! rewrite entirely (the CoW pages it unshared die with it).
//!
//! Two properties the incremental pipeline depends on:
//!
//! - **No intra-transaction slot reuse.** A slot freed by this
//!   transaction's `remove` becomes reusable only at `commit`
//!   (`Graph::seal_frees`); adds inside the transaction draw from the
//!   base graph's sealed free list. An id therefore never refers to two
//!   different nodes within one parent→child step, which is what makes
//!   id-based parent-vs-child delta comparison sound.
//! - **Deterministic slot assignment.** The sealed free list is a pure
//!   function of the base graph's occupied slot set (tombstones,
//!   smallest first), so replaying a transaction — on another thread
//!   count, or after checkpoint restore — assigns identical ids.

use crate::graph::{Graph, GraphError, Node, NodeId};
use crate::op::{InputKind, OpKind};
use crate::tensor::TensorMeta;
use crate::view::GraphView;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Typed record of what one transaction changed, relative to its base.
///
/// `touched` lists *pre-existing* nodes whose content (edges, meta,
/// name, cost attributes) changed; nodes added and then modified in the
/// same transaction stay only in `added`. A node added and removed in
/// the same transaction appears in neither set.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// Nodes present in the result but not the base.
    pub added: BTreeSet<NodeId>,
    /// Base nodes no longer present in the result.
    pub removed: BTreeSet<NodeId>,
    /// Base nodes still present whose content changed.
    pub touched: BTreeSet<NodeId>,
}

impl GraphDelta {
    /// Whether the transaction changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.touched.is_empty()
    }

    /// Every id involved: added ∪ removed ∪ touched.
    pub fn all(&self) -> BTreeSet<NodeId> {
        let mut s = self.added.clone();
        s.extend(self.removed.iter().copied());
        s.extend(self.touched.iter().copied());
        s
    }
}

/// The scale edits of one fission overlay ([`GraphTxn::scale`]), each
/// kept as the allocation it started from and the allocation it made.
/// A scaled node is a function of its source node and `(parts, dim)`
/// alone, so wherever a later build finds the recorded source still in
/// the slot it can share the recorded result instead of copying the
/// node. Holding the source keeps the comparison about one node.
#[derive(Debug, Default)]
pub struct ScaleEdits {
    /// Per slot, one step per enabled region the node is in.
    by_slot: Vec<Vec<ScaleEdit>>,
}

/// `(source, parts, dim, scaled)`.
type ScaleEdit = (Arc<Node>, u64, i32, Arc<Node>);

impl ScaleEdits {
    fn find(&self, id: NodeId, source: &Arc<Node>, parts: u64, dim: i32) -> Option<&Arc<Node>> {
        let steps = self.by_slot.get(id.index())?;
        let step = steps.iter().find(|e| Arc::ptr_eq(&e.0, source) && (e.1, e.2) == (parts, dim))?;
        Some(&step.3)
    }

    fn push(&mut self, id: NodeId, source: Arc<Node>, parts: u64, dim: i32, scaled: Arc<Node>) {
        if self.by_slot.len() <= id.index() {
            self.by_slot.resize_with(id.index() + 1, Vec::new);
        }
        self.by_slot[id.index()].push((source, parts, dim, scaled));
    }
}

/// What a [`GraphTxn::scale`] step does besides editing the node.
#[derive(Debug)]
pub enum ScaleMemo<'a> {
    /// Nothing: every node is copied and edited.
    Cold,
    /// Install the recorded result wherever the slot still holds the
    /// recorded source; edit the rest.
    Reuse(&'a ScaleEdits),
    /// Record every edit. Where `like`'s node in the same slot is what
    /// the edit would make, its allocation is installed instead, so the
    /// record shares nodes with a graph that already exists.
    Record {
        /// The record being built.
        edits: &'a mut ScaleEdits,
        /// A finished overlay of the same state.
        like: &'a Graph,
    },
}

/// A transactional rewrite of a [`Graph`].
///
/// Mirrors the graph's mutator vocabulary (`add`, `add_with_meta`,
/// `replace_input`, `redirect_uses`, `remove`, …) and implements
/// [`GraphView`] so rule code can interleave reads with writes.
#[derive(Debug, Clone)]
pub struct GraphTxn {
    g: Graph,
    /// What the transaction did to each slot's node, [`UNCHANGED`]
    /// past the end: the delta as dense marks, turned into sets only
    /// when asked for.
    marks: Vec<u8>,
}

const UNCHANGED: u8 = 0;
const ADDED: u8 = 1;
const REMOVED: u8 = 2;
const TOUCHED: u8 = 3;

impl GraphTxn {
    /// Opens a transaction on a copy-on-write snapshot of `base`.
    /// O(1): no node is copied until it is written.
    pub fn begin(base: &Graph) -> Self {
        GraphTxn { g: base.clone(), marks: Vec::new() }
    }

    /// Commits: seals slots freed by this transaction for future reuse
    /// and returns the rewritten graph plus the typed delta.
    pub fn commit(self) -> (Graph, GraphDelta) {
        let delta = self.delta();
        (self.into_graph(), delta)
    }

    /// [`Self::commit`] for a caller that does not read the delta.
    pub fn into_graph(mut self) -> Graph {
        self.g.seal_frees();
        self.g
    }

    /// The delta recorded so far.
    pub fn delta(&self) -> GraphDelta {
        let marked = |kind: u8| {
            let slots = self.marks.iter().enumerate().filter(move |&(_, &m)| m == kind);
            slots.map(|(i, _)| NodeId::from_index(i)).collect()
        };
        GraphDelta { added: marked(ADDED), removed: marked(REMOVED), touched: marked(TOUCHED) }
    }

    fn mark(&mut self, v: NodeId) -> &mut u8 {
        if self.marks.len() <= v.index() {
            self.marks.resize(self.g.capacity().max(v.index() + 1), UNCHANGED);
        }
        &mut self.marks[v.index()]
    }

    /// Marks `v` touched if it pre-exists this transaction.
    fn touch(&mut self, v: NodeId) {
        let mark = self.mark(v);
        if *mark == UNCHANGED {
            *mark = TOUCHED;
        }
    }

    /// Adds a graph input node with explicit tensor metadata.
    pub fn add_input(&mut self, kind: InputKind, meta: TensorMeta, name: &str) -> NodeId {
        let id = self.g.add_input(kind, meta, name);
        *self.mark(id) = ADDED;
        id
    }

    /// Adds an operator node, inferring its output metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is dead or shape inference fails.
    pub fn add(&mut self, op: OpKind, inputs: &[NodeId]) -> Result<NodeId, GraphError> {
        let id = self.g.add(op, inputs)?;
        *self.mark(id) = ADDED;
        for &i in inputs {
            self.touch(i);
        }
        Ok(id)
    }

    /// Adds an operator node with explicit output metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is dead.
    pub fn add_with_meta(
        &mut self,
        op: OpKind,
        inputs: &[NodeId],
        meta: TensorMeta,
    ) -> Result<NodeId, GraphError> {
        let id = self.g.add_with_meta(op, inputs, meta)?;
        *self.mark(id) = ADDED;
        for &i in inputs {
            self.touch(i);
        }
        Ok(id)
    }

    /// Adds a keepalive (lifetime/ordering-only) edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is dead.
    pub fn add_keepalive(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.g.add_keepalive(from, to)?;
        self.touch(from);
        self.touch(to);
        Ok(())
    }

    /// Adds the keepalive edge `u → m` for every `u` in `from` and `m`
    /// in `to`, touching each endpoint once. Graph and delta end up
    /// exactly as after calling [`GraphTxn::add_keepalive`] for each
    /// pair with `from` as the outer loop: every `m` gains `from`, in
    /// order, at the end of its keepalive list, and every `u` gains
    /// `to`, in order, at the end of its successor list. An empty side
    /// means no pair: nothing is checked or changed.
    ///
    /// # Errors
    ///
    /// Returns the error the pairwise loop would hit first for a dead
    /// endpoint; nothing has been modified then.
    pub fn add_keepalive_fan(&mut self, from: &[NodeId], to: &[NodeId]) -> Result<(), GraphError> {
        if from.is_empty() || to.is_empty() {
            return Ok(());
        }
        self.g.add_keepalive_fan(from, to)?;
        for &v in from.iter().chain(to) {
            self.touch(v);
        }
        Ok(())
    }

    /// Sets a node's display name.
    pub fn set_name(&mut self, id: NodeId, name: &str) {
        self.g.set_name(id, name);
        self.touch(id);
    }

    /// Overwrites a node's output metadata (fission shape scaling).
    pub fn set_meta(&mut self, id: NodeId, meta: TensorMeta) {
        self.g.set_meta(id, meta);
        self.touch(id);
    }

    /// Sets the fission cost-repeat multiplier of a node.
    pub fn set_cost_repeat(&mut self, id: NodeId, repeat: u64) {
        self.g.set_cost_repeat(id, repeat);
        self.touch(id);
    }

    /// The scale step of a fission overlay: multiplies `id`'s cost
    /// repeat by `parts` and, for an output dimension (`dim > 0`,
    /// 1-based), splits its extent `parts` ways. `memo` decides only
    /// whether the node is a fresh copy or an allocation shared with
    /// another graph, never its content.
    pub fn scale(&mut self, id: NodeId, parts: u64, dim: i32, memo: &mut ScaleMemo<'_>) {
        self.touch(id);
        let source = self.g.slot_shared(id.index()).expect("live node");
        if let ScaleMemo::Reuse(edits) = memo {
            if let Some(scaled) = edits.find(id, source, parts, dim) {
                self.g.install(id, scaled.clone());
                return;
            }
        }
        let ScaleMemo::Record { edits, like } = memo else {
            return self.g.node_mut(id).scale(parts, dim);
        };
        let source = source.clone();
        match like.slot_shared(id.index()).filter(|n| n.is_scaled(&source, parts, dim)) {
            Some(same) => self.g.install(id, same.clone()),
            None => self.g.node_mut(id).scale(parts, dim),
        }
        let scaled = self.g.slot_shared(id.index()).expect("live node").clone();
        edits.push(id, source, parts, dim, scaled);
    }

    /// Anchors a node's output allocation to another node's execution.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is not a live node.
    pub fn set_alloc_with(&mut self, id: NodeId, anchor: NodeId) {
        self.g.set_alloc_with(id, anchor);
        self.touch(id);
    }

    /// Replaces every use of `old` as an input of `user` with `new`.
    ///
    /// # Panics
    ///
    /// Panics if `user` does not actually use `old`, or ids are dead.
    pub fn replace_input(&mut self, user: NodeId, old: NodeId, new: NodeId) {
        self.g.replace_input(user, old, new);
        self.touch(user);
        self.touch(old);
        self.touch(new);
    }

    /// Redirects *all* uses of `old` to `new`.
    pub fn redirect_uses(&mut self, old: NodeId, new: NodeId) {
        let users = self.g.suc(old);
        self.g.redirect_uses(old, new);
        self.touch(old);
        self.touch(new);
        for u in users {
            if u != new {
                self.touch(u);
            }
        }
    }

    /// Removes a node that has no remaining users. The slot becomes
    /// reusable only after [`GraphTxn::commit`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::HasUsers`] if the node still has
    /// successors, or [`GraphError::MissingNode`] if already removed.
    pub fn remove(&mut self, id: NodeId) -> Result<(), GraphError> {
        let preds = self.g.pre_all(id);
        self.g.remove(id)?;
        // Added and removed in the same transaction: net zero.
        let mark = self.mark(id);
        *mark = if *mark == ADDED { UNCHANGED } else { REMOVED };
        for p in preds {
            if self.g.contains(p) {
                self.touch(p);
            }
        }
        Ok(())
    }

    /// Validates the in-progress graph (delegates to
    /// [`Graph::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.g.validate()
    }
}

impl GraphView for GraphTxn {
    #[inline]
    fn slot(&self, i: usize) -> Option<&crate::graph::Node> {
        self.g.slot(i)
    }

    #[inline]
    fn len(&self) -> usize {
        GraphView::len(&self.g)
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.g.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::UnaryKind;
    use crate::tensor::DType;

    fn chain() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(a);
        (b.finish(), vec![x, a, c])
    }

    #[test]
    fn commit_records_delta_and_base_unchanged() {
        let (base, ids) = chain();
        let base_len = base.len();
        let mut txn = GraphTxn::begin(&base);
        let r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[0]]).unwrap();
        txn.replace_input(ids[2], ids[1], r);
        let (g, delta) = txn.commit();
        assert_eq!(base.len(), base_len, "base untouched");
        assert!(g.contains(r));
        assert!(delta.added.contains(&r));
        assert!(delta.touched.contains(&ids[2]));
        assert!(delta.removed.is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn add_then_remove_nets_out() {
        let (base, ids) = chain();
        let mut txn = GraphTxn::begin(&base);
        let r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[0]]).unwrap();
        txn.remove(r).unwrap();
        let (_, delta) = txn.commit();
        assert!(!delta.added.contains(&r));
        assert!(!delta.removed.contains(&r));
    }

    #[test]
    fn no_intra_txn_slot_reuse() {
        let (base, ids) = chain();
        let mut txn = GraphTxn::begin(&base);
        txn.remove(ids[2]).unwrap();
        let r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[1]]).unwrap();
        assert_ne!(r, ids[2], "freed slot must not be reused within the txn");
        let (g, delta) = txn.commit();
        assert!(delta.removed.contains(&ids[2]));
        // After commit the slot is sealed: the *next* transaction reuses it.
        let mut txn2 = GraphTxn::begin(&g);
        let s = txn2.add(OpKind::Unary(UnaryKind::Gelu), &[ids[1]]).unwrap();
        assert_eq!(s, ids[2], "sealed slot reused by the next txn");
    }

    #[test]
    fn dropped_txn_discards_everything() {
        let (base, ids) = chain();
        let cap = base.capacity();
        {
            let mut txn = GraphTxn::begin(&base);
            let _ = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[0]]).unwrap();
        }
        assert_eq!(base.capacity(), cap);
        base.validate().unwrap();
    }
}
