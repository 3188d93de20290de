//! Transactional graph mutation: [`GraphTxn`].
//!
//! All mutation from outside `magis-graph` goes through a transaction:
//! `begin` takes an O(1) copy-on-write snapshot of the base graph,
//! mutators rewrite the private copy, and `commit` returns the new
//! graph — atomically from the caller's perspective, since the base
//! graph is never touched. Dropping a transaction without committing
//! discards the rewrite entirely (the CoW pages it unshared die with
//! it). What a rewrite touched is the rule's own record
//! (`Applied::mutated` in `magis-core`), not the transaction's.
//!
//! Two properties the incremental pipeline depends on:
//!
//! - **No intra-transaction slot reuse.** A slot freed by this
//!   transaction's `remove` becomes reusable only at `commit`
//!   (`Graph::seal_frees`); adds inside the transaction draw from the
//!   base graph's sealed free list. An id therefore never refers to two
//!   different nodes within one parent→child step, which is what makes
//!   id-based parent-vs-child comparison sound.
//! - **Deterministic slot assignment.** The sealed free list is a pure
//!   function of the base graph's occupied slot set (tombstones,
//!   smallest first), so replaying a transaction — on another thread
//!   count, or after checkpoint restore — assigns identical ids. A
//!   transaction that calls [`GraphTxn::fresh_slots_from`] adds past
//!   every tombstone instead, at ids that depend on the base's
//!   capacity alone.

use crate::graph::{Graph, GraphError, Node, NodeId};
use crate::op::{InputKind, OpKind};
use crate::tensor::TensorMeta;
use crate::view::GraphView;
use std::sync::Arc;

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
}

impl GraphTxn {
    /// Opens a transaction on a copy-on-write snapshot of `base`.
    /// O(1): no node is copied until it is written.
    pub fn begin(base: &Graph) -> Self {
        GraphTxn { g: base.clone() }
    }

    /// Commits: seals slots freed by this transaction for future reuse
    /// and returns the rewritten graph.
    pub fn commit(mut self) -> Graph {
        self.g.seal_frees();
        self.g
    }

    /// Every node this transaction adds from here on takes a fresh
    /// slot, the first at `floor` (at the capacity, if that is higher),
    /// never a tombstone of the base: the ids the adds get then depend
    /// on the base's capacity alone, not on which of its slots are
    /// free. The skipped slots are tombstones, reusable after
    /// [`GraphTxn::commit`] like every other.
    pub fn fresh_slots_from(&mut self, floor: usize) {
        self.g.fresh_slots_from(floor);
    }

    /// Adds a graph input node with explicit tensor metadata.
    pub fn add_input(&mut self, kind: InputKind, meta: TensorMeta, name: &str) -> NodeId {
        self.g.add_input(kind, meta, name)
    }

    /// Adds an operator node, inferring its output metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is dead or shape inference fails.
    pub fn add(&mut self, op: OpKind, inputs: &[NodeId]) -> Result<NodeId, GraphError> {
        self.g.add(op, inputs)
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
        self.g.add_with_meta(op, inputs, meta)
    }

    /// Adds a keepalive (lifetime/ordering-only) edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is dead.
    pub fn add_keepalive(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.g.add_keepalive(from, to)
    }

    /// Pins every `u` in `from` until every `m` in `to` has run: one
    /// pin group ([`crate::pins`]) standing for the keepalive edge
    /// `u → m` of every pair, with multiplicity. No node's `keepalive`
    /// or `succs` list changes, so no node is copied. Every pass reads
    /// the group as exactly those edges, and a graph record writes them
    /// ([`Graph::expand_pins`]). An empty side means no pair: nothing
    /// is checked or changed.
    ///
    /// # Errors
    ///
    /// Returns the error the pairwise [`GraphTxn::add_keepalive`] loop
    /// (sources outermost) would hit first for a dead endpoint; nothing
    /// has been modified then.
    pub fn add_keepalive_fan(&mut self, from: &[NodeId], to: &[NodeId]) -> Result<(), GraphError> {
        self.g.add_keepalive_fan(from, to)
    }

    /// Moves every pin of `old` as a pin-group input to `new`: each
    /// merge that waited for `old` waits for `new` instead.
    pub fn repin(&mut self, old: NodeId, new: NodeId) {
        self.g.repin(old, new);
    }

    /// Sets a node's display name.
    pub fn set_name(&mut self, id: NodeId, name: &str) {
        self.g.set_name(id, name);
    }

    /// Overwrites a node's output metadata (fission shape scaling).
    pub fn set_meta(&mut self, id: NodeId, meta: TensorMeta) {
        self.g.set_meta(id, meta);
    }

    /// Sets the fission cost-repeat multiplier of a node.
    pub fn set_cost_repeat(&mut self, id: NodeId, repeat: u64) {
        self.g.set_cost_repeat(id, repeat);
    }

    /// The scale step of a fission overlay: multiplies `id`'s cost
    /// repeat by `parts` and, for an output dimension (`dim > 0`,
    /// 1-based), splits its extent `parts` ways. `memo` decides only
    /// whether the node is a fresh copy or an allocation shared with
    /// another graph, never its content.
    pub fn scale(&mut self, id: NodeId, parts: u64, dim: i32, memo: &mut ScaleMemo<'_>) {
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
    }

    /// Replaces every use of `old` as an input of `user` with `new`.
    ///
    /// # Panics
    ///
    /// Panics if `user` does not actually use `old`, or ids are dead.
    pub fn replace_input(&mut self, user: NodeId, old: NodeId, new: NodeId) {
        self.g.replace_input(user, old, new);
    }

    /// Redirects *all* uses of `old` to `new`, pins included.
    pub fn redirect_uses(&mut self, old: NodeId, new: NodeId) {
        self.g.redirect_uses(old, new);
    }

    /// Removes a node that has no remaining users. The slot becomes
    /// reusable only after [`GraphTxn::commit`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::HasUsers`] if the node still has
    /// successors, or [`GraphError::MissingNode`] if already removed.
    pub fn remove(&mut self, id: NodeId) -> Result<(), GraphError> {
        self.g.remove(id)
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
    fn pins(&self) -> &crate::pins::PinTable {
        self.g.pins()
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
    fn commit_leaves_the_base_unchanged() {
        let (base, ids) = chain();
        let base_len = base.len();
        let mut txn = GraphTxn::begin(&base);
        let r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[0]]).unwrap();
        txn.replace_input(ids[2], ids[1], r);
        let g = txn.commit();
        assert_eq!(base.len(), base_len, "base untouched");
        assert!(!base.contains(r));
        assert!(g.contains(r));
        assert_eq!(g.node(ids[2]).inputs(), &[r]);
        assert_eq!(base.node(ids[2]).inputs(), &[ids[1]]);
        g.validate().unwrap();
    }

    #[test]
    fn no_intra_txn_slot_reuse() {
        let (base, ids) = chain();
        let mut txn = GraphTxn::begin(&base);
        txn.remove(ids[2]).unwrap();
        let r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[1]]).unwrap();
        assert_ne!(r, ids[2], "freed slot must not be reused within the txn");
        let g = txn.commit();
        assert!(!g.contains(ids[2]));
        // After commit the slot is sealed: the *next* transaction reuses it.
        let mut txn2 = GraphTxn::begin(&g);
        let s = txn2.add(OpKind::Unary(UnaryKind::Gelu), &[ids[1]]).unwrap();
        assert_eq!(s, ids[2], "sealed slot reused by the next txn");
    }

    #[test]
    fn fresh_slots_start_at_the_floor_and_pass_every_tombstone() {
        let (base, ids) = chain();
        let mut txn = GraphTxn::begin(&base);
        txn.remove(ids[2]).unwrap();
        let g = txn.commit();
        let mut txn = GraphTxn::begin(&g);
        txn.fresh_slots_from(64);
        let r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[1]]).unwrap();
        let s = txn.add(OpKind::Unary(UnaryKind::Gelu), &[r]).unwrap();
        assert_eq!((r.index(), s.index()), (64, 65), "the base's tombstone is passed over");
        let g = txn.commit();
        g.validate().unwrap();
        assert_eq!(g.capacity(), 66);
        // The free list is exactly the tombstones: slot 2 and 3..64.
        assert_eq!(g.free_slots(), 62);
        let mut txn = GraphTxn::begin(&g);
        let t = txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[0]]).unwrap();
        assert_eq!(t, ids[2], "the next transaction reuses them, smallest first");
        // A floor under the capacity adds at the capacity.
        let mut txn = GraphTxn::begin(&g);
        txn.fresh_slots_from(10);
        assert_eq!(txn.add(OpKind::Unary(UnaryKind::Relu), &[ids[0]]).unwrap().index(), 66);
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
