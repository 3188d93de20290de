//! Weisfeiler–Lehman-style graph hashing (Algorithm 3, `GraphHash`).
//!
//! Used by the top-level search to filter out duplicate graphs: the
//! paper reports that the hash test removes ~87% of candidate states
//! (Fig. 15). Node labels incorporate the full operator (kind +
//! attributes), output metadata, and the fission cost-repeat, then
//! propagate along edges in topological order; the final digest is a
//! hash of the (order-insensitive) wrapping sum of node digests. A
//! search's candidate carries its digests from its parent's
//! ([`ParentDigests::carry`]) and recomputes only what its rewrite
//! changed, to the same hash. Every digest is a
//! [`MixHasher`] value, fixed across toolchains: a checkpoint's
//! seen-list stores them.

use crate::graph::{Graph, NodeId};
use crate::pins::PinCounts;
use crate::view::GraphView;
use magis_util::hash::MixHasher;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

fn node_label<G: GraphView>(g: &G, v: NodeId) -> u64 {
    let mut h = MixHasher::default();
    let n = g.node(v);
    n.op.hash(&mut h);
    n.meta.hash(&mut h);
    n.cost_repeat.hash(&mut h);
    n.alloc_with.is_some().hash(&mut h);
    h.finish()
}

/// The forward digest of `v`: its label, its data inputs' digests in
/// operand order, and the orderless sum of its keepalive inputs'
/// digests, where a pin group `v` is a merge of adds the group's sum
/// (`group_ka`), the sum its pairwise edges would fold. The one
/// per-node digest of both the full pass and the carried one.
fn node_digest<G: GraphView>(g: &G, v: NodeId, digest: &[u64], group_ka: &[u64]) -> u64 {
    let n = g.node(v);
    let mut h = MixHasher::default();
    node_label(g, v).hash(&mut h);
    for &p in n.inputs() {
        digest[p.index()].hash(&mut h);
    }
    let ka: u64 = n.keepalive().iter().fold(0u64, |acc, &p| acc.wrapping_add(digest[p.index()]));
    let pinned = g.pins().of(v).iter().filter(|p| p.merge);
    let ka = pinned.fold(ka, |acc, p| acc.wrapping_add(group_ka[p.group as usize]));
    ka.hash(&mut h);
    h.finish()
}

/// Every node's forward digest (0 at a dead slot), each pin group's
/// keepalive sum, and the wrapping sum of the digests: what
/// [`graph_hash`] computes on its way to one number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests {
    slot: Vec<u64>,
    group_ka: Vec<u64>,
    sum: u64,
    len: usize,
}

impl Digests {
    /// The graph hash these digests make: [`graph_hash`] of their graph.
    pub fn hash(&self) -> u64 {
        let mut h = MixHasher::default();
        self.sum.hash(&mut h);
        self.len.hash(&mut h);
        h.finish()
    }

    /// The wrapping sum of every node's digest.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Hashes a graph up to node-id renaming.
///
/// Two graphs that differ only in arena numbering (e.g. one built
/// directly and one produced by a rewrite-and-undo sequence) hash
/// equal; graphs with different structure, shapes, attributes or
/// fission multipliers hash differently with overwhelming probability.
pub fn graph_hash<G: GraphView>(g: &G) -> u64 {
    graph_digests(g).hash()
}

/// [`graph_hash`]'s digests, before they are folded into one number.
pub fn graph_digests<G: GraphView>(g: &G) -> Digests {
    digests_in_order(g, |_| {})
}

/// The full pass, calling `visit` on each node as its digest is made.
fn digests_in_order<G: GraphView>(g: &G, mut visit: impl FnMut(NodeId)) -> Digests {
    // A node's digest is a function of its predecessors' digests: any
    // topological order yields the same ones, so this is Kahn's
    // algorithm on a plain stack (nodes on or behind a cycle are never
    // ready and stay out of the sum, as with `topo_order`).
    // A pin group's keepalive sum is its inputs' digests, once: the sum
    // each of its merges' edges would fold, with the same value.
    let pins = g.pins();
    let mut indeg = vec![0usize; g.capacity()];
    let mut groups = PinCounts::new(pins, |_| true, |m| indeg[m.index()] += 1);
    let mut group_ka = vec![0u64; pins.groups().len()];
    let mut ready = Vec::new();
    for v in g.node_ids() {
        let n = g.node(v);
        indeg[v.index()] += n.inputs().len() + n.keepalive().len();
        if indeg[v.index()] == 0 {
            ready.push(v);
        }
    }
    let mut digest = vec![0u64; g.capacity()];
    let mut sum: u64 = 0;
    while let Some(v) = ready.pop() {
        let x = node_digest(g, v, &digest, &group_ka);
        digest[v.index()] = x;
        sum = sum.wrapping_add(x);
        visit(v);
        let mut release = |s: NodeId| {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        };
        g.node(v).succs().iter().for_each(|&s| release(s));
        groups.ran(pins, v, |k| {
            let group = pins.group(k);
            let sum = group.inputs().iter().fold(0u64, |acc, &p| acc.wrapping_add(digest[p.index()]));
            group_ka[k as usize] = sum;
            group.merges().iter().for_each(|&m| release(m));
        });
    }
    Digests { slot: digest, group_ka, sum, len: g.len() }
}

/// A parent graph's digests, with the topological rank the full pass
/// made each one at: what a child's hash is carried from
/// ([`ParentDigests::carry`]).
#[derive(Debug, Clone)]
pub struct ParentDigests {
    digests: Digests,
    /// Per slot, the step of the full pass that hashed it (`u32::MAX`:
    /// never).
    rank: Vec<u32>,
}

/// A child's digests carried from its parent's, and how many node
/// digests the carry computed.
#[derive(Debug, Clone)]
pub struct Carried {
    /// Equal to [`graph_digests`] of the child.
    pub digests: Digests,
    /// Node digests computed, with a re-queued node counted each time.
    pub recomputed: usize,
}

/// A parent node's rank in a child's order is its step `<< NEW_BITS`,
/// so a node the parent has not fits between two of them.
const NEW_BITS: u32 = 16;
const UNRANKED: u64 = u64::MAX;
const RANKING: u64 = u64::MAX - 1;

impl ParentDigests {
    /// The full pass over `g`, keeping the order it ran in.
    pub fn of(g: &Graph) -> ParentDigests {
        let mut rank = vec![u32::MAX; g.capacity()];
        let mut step = 0u32;
        let digests = digests_in_order(g, |v| {
            rank[v.index()] = step;
            step += 1;
        });
        ParentDigests { digests, rank }
    }

    /// The digests of the full pass.
    pub fn digests(&self) -> &Digests {
        &self.digests
    }

    /// The digests of `child`, carried from this table of `parent`,
    /// where `rewritten` is `child.rewritten_slots(parent)`. A node not
    /// rewritten keeps its digest unless an input's changed. Each rewritten
    /// live node is recomputed, in the parent's topological order (a
    /// new node one step after its latest input), and so is each
    /// consumer of a digest that changed; a node whose input changes
    /// after it ran runs again, and a digest equal to the one it
    /// replaces goes no further.
    ///
    /// `None` where the carry cannot hold or would cost more than the
    /// full pass: the pin tables differ, or the work outgrows `child`
    /// (which a cycle does).
    pub fn carry(&self, parent: &Graph, child: &Graph, rewritten: &[NodeId]) -> Option<Carried> {
        let pins = child.pins();
        if !std::ptr::eq(pins, parent.pins()) && pins.groups() != parent.pins().groups() {
            return None;
        }
        let cap = child.capacity();
        let mut slot = self.digests.slot.clone();
        slot.resize(slot.len().max(cap), 0);
        let mut group_ka = self.digests.group_ka.clone();
        let mut sum = self.digests.sum;
        let mut work = Worklist {
            table: self,
            child,
            heap: BinaryHeap::new(),
            queued: vec![false; cap],
            ranks: vec![UNRANKED; cap],
        };
        // Every rewritten node is queued before any is ranked, so each
        // ranks after the rewritten nodes it reads.
        for &v in rewritten {
            if child.contains(v) {
                work.queued[v.index()] = true;
            } else {
                sum = sum.wrapping_sub(std::mem::take(&mut slot[v.index()]));
            }
        }
        for &v in rewritten.iter().filter(|&&v| child.contains(v)) {
            let rank = work.rank(v);
            work.heap.push(Reverse((rank, v)));
        }
        let mut recomputed = 0;
        while let Some(v) = work.pop() {
            recomputed += 1;
            if recomputed > child.len() {
                return None;
            }
            let d = node_digest(child, v, &slot, &group_ka);
            let old = std::mem::replace(&mut slot[v.index()], d);
            if d == old {
                continue;
            }
            sum = sum.wrapping_add(d).wrapping_sub(old);
            child.node(v).succs().iter().for_each(|&s| work.push(s));
            for p in pins.of(v).iter().filter(|p| !p.merge) {
                let ka = &mut group_ka[p.group as usize];
                *ka = ka.wrapping_add(d).wrapping_sub(old);
                pins.group(p.group).merges().iter().for_each(|&m| work.push(m));
            }
        }
        slot.truncate(cap);
        Some(Carried { digests: Digests { slot, group_ka, sum, len: child.len() }, recomputed })
    }
}

/// The carry's queue: each node once at a time, lowest rank first.
struct Worklist<'a> {
    table: &'a ParentDigests,
    child: &'a Graph,
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
    queued: Vec<bool>,
    /// Per child slot: its rank, `UNRANKED`, or `RANKING` while its
    /// inputs are ranked.
    ranks: Vec<u64>,
}

impl Worklist<'_> {
    fn push(&mut self, v: NodeId) {
        if !std::mem::replace(&mut self.queued[v.index()], true) {
            let rank = self.rank(v);
            self.heap.push(Reverse((rank, v)));
        }
    }

    fn pop(&mut self) -> Option<NodeId> {
        let Reverse((_, v)) = self.heap.pop()?;
        self.queued[v.index()] = false;
        Some(v)
    }

    /// `v`'s rank in the child: one more than its latest input's, and no
    /// less than its own parent rank. An input the diff queued is ranked
    /// first; an input neither ranked nor queued counts at its parent
    /// rank, and one on a cycle through `v` not at all.
    fn rank(&mut self, v: NodeId) -> u64 {
        let Worklist { child, table, ranks, queued, .. } = self;
        let parent_rank = |i: usize| {
            let r = table.rank.get(i).filter(|&&r| r != u32::MAX);
            r.map_or(0, |&r| u64::from(r) << NEW_BITS)
        };
        let mut stack = vec![(v, false)];
        while let Some((u, inputs_ranked)) = stack.pop() {
            let i = u.index();
            let preds = || child.node(u).inputs().iter().chain(child.node(u).keepalive());
            if inputs_ranked {
                let of = |p: &NodeId| match ranks[p.index()] {
                    RANKING => None,
                    UNRANKED => Some(parent_rank(p.index())),
                    r => Some(r),
                };
                let latest = preds().filter_map(of).max();
                ranks[i] = latest.map_or(0, |r| r + 1).max(parent_rank(i));
            } else if ranks[i] == UNRANKED {
                ranks[i] = RANKING;
                stack.push((u, true));
                let pending = |p: &&NodeId| ranks[p.index()] == UNRANKED && queued[p.index()];
                stack.extend(preds().filter(pending).map(|&p| (p, false)));
            }
        }
        ranks[v.index()]
    }
}

/// The hash of `child`, [`graph_hash`] bit for bit: carried from its
/// parent (the parent's table, the parent, and
/// `child.rewritten_slots(parent)`) where [`ParentDigests::carry`]
/// takes it, a full pass otherwise.
pub fn child_hash(child: &Graph, parent: Option<(&ParentDigests, &Graph, &[NodeId])>) -> u64 {
    match parent.and_then(|(table, g, rewritten)| table.carry(g, child, rewritten)) {
        Some(carried) => carried.digests.hash(),
        None => graph_hash(child),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta(d: &[u64]) -> TensorMeta {
        TensorMeta::new(d, DType::F32)
    }

    fn chain(unaries: &[UnaryKind]) -> Graph {
        let mut g = Graph::new();
        let mut cur = g.add_input(InputKind::Activation, meta(&[4, 4]), "x");
        for &u in unaries {
            cur = g.add(OpKind::Unary(u), &[cur]).unwrap();
        }
        g
    }

    #[test]
    fn isomorphic_graphs_hash_equal() {
        let g1 = chain(&[UnaryKind::Relu, UnaryKind::Gelu]);
        let g2 = chain(&[UnaryKind::Relu, UnaryKind::Gelu]);
        assert_eq!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn different_ops_hash_differently() {
        let g1 = chain(&[UnaryKind::Relu, UnaryKind::Gelu]);
        let g2 = chain(&[UnaryKind::Gelu, UnaryKind::Relu]);
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn shape_sensitivity() {
        let mut g1 = Graph::new();
        g1.add_input(InputKind::Activation, meta(&[4, 4]), "x");
        let mut g2 = Graph::new();
        g2.add_input(InputKind::Activation, meta(&[4, 8]), "x");
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }

    #[test]
    fn rewrite_and_undo_restores_hash() {
        let mut g = chain(&[UnaryKind::Relu]);
        let h0 = graph_hash(&g);
        let x = g.graph_inputs()[0];
        let extra = g.add(OpKind::Unary(UnaryKind::Tanh), &[x]).unwrap();
        assert_ne!(graph_hash(&g), h0);
        g.remove(extra).unwrap();
        assert_eq!(graph_hash(&g), h0);
    }

    #[test]
    fn operand_order_matters() {
        let build = |swap: bool| {
            let mut g = Graph::new();
            let a = g.add_input(InputKind::Activation, meta(&[4, 4]), "a");
            let b = g.add_input(InputKind::Weight, meta(&[4, 4]), "b");
            let (l, r) = if swap { (b, a) } else { (a, b) };
            g.add(OpKind::Binary(BinaryKind::Sub), &[l, r]).unwrap();
            g
        };
        assert_ne!(graph_hash(&build(false)), graph_hash(&build(true)));
    }

    /// A remat clone of a producer for one of its consumers recomputes
    /// the clone and that consumer, and stops there: the clone's digest
    /// is its original's. The producer and the clone's input only lost
    /// or gained a successor.
    #[test]
    fn a_remat_clone_for_another_consumer_recomputes_at_most_three_digests() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(&[4, 4]), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[a]).unwrap();
        let c = g.add(OpKind::Unary(UnaryKind::Tanh), &[a]).unwrap();
        g.add(OpKind::Binary(BinaryKind::Add), &[b, c]).unwrap();
        let parent = g;
        let mut txn = crate::txn::GraphTxn::begin(&parent);
        let clone = txn.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        txn.replace_input(c, a, clone);
        let child = txn.commit();
        let rewritten = child.rewritten_slots(&parent);
        assert_eq!(rewritten, [c, clone]);
        let carried = ParentDigests::of(&parent).carry(&parent, &child, &rewritten).unwrap();
        assert!(carried.recomputed <= 3, "recomputed {}", carried.recomputed);
        assert_eq!(carried.digests, graph_digests(&child));
        assert_eq!(carried.digests.hash(), graph_hash(&child));
    }

    #[test]
    fn cost_repeat_hashes() {
        let mut g1 = chain(&[UnaryKind::Relu]);
        let g2 = g1.clone();
        let n = g1.node_ids().last().unwrap();
        g1.set_cost_repeat(n, 4);
        assert_ne!(graph_hash(&g1), graph_hash(&g2));
    }
}
