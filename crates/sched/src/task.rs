//! Scheduling tasks: a node subset prepared for memory-aware ordering.
//!
//! A [`SchedTask`] compiles the lifetime semantics of
//! [`magis_sim::memory`] (storage roots, aliases, anchored allocations,
//! host-resident `Store` outputs, boundary tensors) into dense local
//! index space so the DP/beam schedulers can evaluate memory deltas in
//! O(degree) per transition.

use crate::workspace::Workspace;
use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};
use magis_sim::memory::device_bytes;
use std::collections::BTreeSet;

/// Rows of local indices in one allocation (compressed sparse rows):
/// row `i` is `data[off[i]..off[i + 1]]`, read as `csr[i]`. The
/// default holds no row and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    off: Vec<u32>,
    data: Vec<usize>,
}

impl Csr {
    pub(crate) fn new() -> Self {
        Csr { off: vec![0], data: Vec::new() }
    }

    /// Appends `row`, sorted ascending and deduplicated.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = usize>) {
        let start = self.data.len();
        self.data.extend(row);
        self.data[start..].sort_unstable();
        let mut end = start;
        for i in start..self.data.len() {
            if end == start || self.data[end - 1] != self.data[i] {
                self.data[end] = self.data[i];
                end += 1;
            }
        }
        self.data.truncate(end);
        self.off.push(end as u32);
    }

    /// The transpose over `n` columns: row `c` lists, ascending, the
    /// rows of `self` that hold `c` (two counting passes).
    pub(crate) fn transposed(&self, n: usize) -> Self {
        let mut off = vec![0u32; n + 1];
        self.data.iter().for_each(|&c| off[c + 1] += 1);
        for c in 0..n {
            off[c + 1] += off[c];
        }
        let (mut next, mut data) = (off.clone(), vec![0; self.data.len()]);
        for (r, row) in self.iter().enumerate() {
            for &c in row {
                data[next[c] as usize] = r;
                next[c] += 1;
            }
        }
        Csr { off, data }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.off.windows(2).map(|w| &self.data[w[0] as usize..w[1] as usize])
    }
}

impl std::ops::Index<usize> for Csr {
    type Output = [usize];

    fn index(&self, i: usize) -> &[usize] {
        &self.data[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// The pin groups of a window with a merge inside it, in window-local
/// indices: every merge of row `k` of `merges` runs after all of row
/// `k` of `inputs`, the group's inputs inside the window (possibly
/// none). A window without any holds no row and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PinRows {
    /// Each group's inputs in the window.
    pub inputs: Csr,
    /// Each group's merges in the window (never empty).
    pub merges: Csr,
    /// Per node, the groups it is an input of / a merge of.
    input_of: Csr,
    merge_of: Csr,
    /// Per group of the graph, its row here, if it has one.
    row: Vec<Option<usize>>,
    /// Per row, whether every merge of the group is in the window.
    whole: Vec<bool>,
}

impl PinRows {
    /// The groups of `g` on the window `ws` indexes, `n` nodes long.
    pub(crate) fn new(g: &Graph, ws: &Workspace, n: usize) -> Self {
        if g.pins().is_empty() {
            return PinRows::default();
        }
        let (mut inputs, mut merges) = (Csr::new(), Csr::new());
        let (mut row, mut whole) = (Vec::new(), Vec::new());
        let local = |nodes: &[NodeId]| nodes.iter().filter_map(|&v| ws.local(v)).collect::<Vec<_>>();
        for group in g.pins().groups() {
            let outs = local(group.merges());
            if outs.is_empty() {
                row.push(None);
                continue;
            }
            row.push(Some(whole.len()));
            whole.push(outs.len() == group.merges().len());
            inputs.push_row(local(group.inputs()));
            merges.push_row(outs);
        }
        let (input_of, merge_of) = (inputs.transposed(n), merges.transposed(n));
        PinRows { inputs, merges, input_of, merge_of, row, whole }
    }

    /// Whether the window has no pin group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.merges.is_empty()
    }

    /// The groups node `i` is an input of.
    #[inline]
    pub fn input_of(&self, i: usize) -> &[usize] {
        if self.is_empty() { &[] } else { &self.input_of[i] }
    }

    /// The groups node `i` is a merge of.
    #[inline]
    pub fn merge_of(&self, i: usize) -> &[usize] {
        if self.is_empty() { &[] } else { &self.merge_of[i] }
    }

    /// Whether row `k` orders anything: it has inputs in the window.
    #[inline]
    pub fn orders(&self, k: usize) -> bool {
        !self.inputs[k].is_empty()
    }
}

/// A storage root relevant to a scheduling window. The window nodes
/// that must execute before it can be freed are its row of
/// [`SchedTask::root_users`].
#[derive(Debug, Clone)]
pub struct RootInfo {
    /// Bytes owned by the root's storage.
    pub bytes: u64,
    /// Whether the root can be freed inside this window (no users
    /// outside it and it is not a terminal output).
    pub freeable: bool,
    /// Local index of the node whose execution allocates the root
    /// (`None`: already resident at window start — counted in `base`).
    pub alloc_at: Option<usize>,
}

/// A prepared scheduling problem over a subset of graph nodes.
#[derive(Debug, Clone)]
pub struct SchedTask<'g> {
    g: &'g Graph,
    /// Window nodes in local-index order (ascending id).
    pub nodes: Vec<NodeId>,
    /// Local predecessors (dependencies inside the window, deduplicated)
    /// along edges; a pin group's are in [`Self::pins`].
    pub preds: Csr,
    /// Local successors along edges.
    pub succs: Csr,
    /// The window's pin groups: a merge's predecessors besides
    /// [`Self::preds`] are the inputs of its groups.
    pub pins: PinRows,
    /// Storage roots touched by the window, in ascending root id.
    pub roots: Vec<RootInfo>,
    /// For each root: local indices of the window nodes that read its
    /// storage (through aliases) along edges, ascending.
    pub root_users: Csr,
    /// For each root: the rows of [`Self::pins`] whose merges also keep
    /// it (a pin group's inputs are read until its last merge). No row
    /// at all when the window has no pin group.
    pub root_pins: Csr,
    /// For each local node: indices into `roots` this node allocates.
    pub allocs: Csr,
    /// For each local node: indices into `roots` this node uses along
    /// edges (its execution may complete the root's user set and free
    /// it; a merge may also complete a group of [`Self::root_pins`]).
    pub uses: Csr,
    /// Bytes resident for the whole window (boundary inputs).
    pub base: u64,
}

impl<'g> SchedTask<'g> {
    /// Prepares a scheduling task over all live nodes of `g`.
    pub fn whole_graph(g: &'g Graph) -> Self {
        Self::build(g, g.node_ids().collect(), &mut Workspace::new(g))
    }

    /// Prepares a scheduling task over `set ⊆ V(g)`.
    ///
    /// Boundary tensors produced outside `set` but read inside it are
    /// charged to `base` for the window's duration; tensors with
    /// readers outside `set` are never freed inside the window.
    pub fn subset(g: &'g Graph, set: &BTreeSet<NodeId>) -> Self {
        Self::build(g, set.iter().copied().collect(), &mut Workspace::new(g))
    }

    /// [`Self::subset`] over `nodes` (ascending id) on the caller's
    /// scratch: the one task builder, behind the search and the public
    /// constructors alike.
    pub(crate) fn build(g: &'g Graph, nodes: Vec<NodeId>, ws: &mut Workspace) -> Self {
        ws.index(nodes.iter().copied());
        let n = nodes.len();
        let mut preds = Csr::new();
        // Relevant storage roots: roots of window nodes plus roots read
        // by window nodes.
        let mut root_ids: Vec<NodeId> = Vec::with_capacity(2 * n);
        for &v in &nodes {
            let node = g.node(v);
            let deps = node.inputs().iter().chain(node.keepalive());
            preds.push_row(deps.clone().filter_map(|&p| ws.local(p)));
            root_ids.push(ws.root_of(g, v));
            root_ids.extend(deps.map(|&p| ws.root_of(g, p)));
        }
        // A merge in the window reads the roots of its groups' inputs:
        // taken once per group.
        let pins = PinRows::new(g, ws, n);
        for (group, row) in g.pins().groups().iter().zip(&pins.row) {
            if row.is_some() {
                root_ids.extend(group.inputs().iter().map(|&p| ws.root_of(g, p)));
            }
        }
        root_ids.sort_unstable();
        root_ids.dedup();

        let mut roots = Vec::with_capacity(root_ids.len());
        // Per root: its users, and where it is allocated (one entry or none).
        let (mut root_users, mut alloc_of) = (Csr::new(), Csr::new());
        let mut root_pins = if pins.is_empty() { Csr::default() } else { Csr::new() };
        let mut base = 0u64;
        let (mut chain, mut users, mut groups) = (Vec::new(), Vec::new(), Vec::new());
        for rid in root_ids {
            let bytes = device_bytes(g, rid);
            if bytes == 0 {
                continue;
            }
            // Users of the root's storage: successors of the root and of
            // every alias chained onto it. Aliases themselves also count
            // as (trivial) readers. `chain` keeps what it has walked, so
            // an alias reached twice is walked once.
            let mut outside_user = false;
            chain.clear();
            chain.push(rid);
            let mut walked = 0;
            while let Some(&a) = chain.get(walked) {
                walked += 1;
                for &s in g.node(a).succs() {
                    match ws.local(s) {
                        Some(li) => users.push(li),
                        None => outside_user = true,
                    }
                    // A descendant rooted at `rid` is an alias onto it.
                    if ws.root_of(g, s) == rid && !chain.contains(&s) {
                        chain.push(s);
                    }
                }
                // A pin group keeps it for its merges: one row, not one
                // user per merge.
                for p in g.pins().of(a).iter().filter(|p| !p.merge) {
                    match pins.row[p.group as usize] {
                        Some(k) => {
                            groups.push(k);
                            outside_user |= !pins.whole[k];
                        }
                        None => outside_user = true,
                    }
                }
            }
            // Freeable here: read in the window and nowhere else (a root
            // nobody reads is a terminal output).
            let freeable = !outside_user && (!users.is_empty() || !groups.is_empty());
            root_users.push_row(users.drain(..));
            if !pins.is_empty() {
                root_pins.push_row(groups.drain(..));
            }
            // Allocation point.
            let root = g.node(rid);
            let alloc_at = if root.op.is_input() {
                None // inputs resident from the start
            } else {
                ws.local(root.alloc_with.unwrap_or(rid))
            };
            alloc_of.push_row(alloc_at);
            if alloc_at.is_none() {
                base += bytes;
            }
            roots.push(RootInfo { bytes, freeable, alloc_at });
        }
        let (succs, allocs, uses) =
            (preds.transposed(n), alloc_of.transposed(n), root_users.transposed(n));
        SchedTask { g, nodes, preds, succs, pins, roots, root_users, root_pins, allocs, uses, base }
    }

    /// Number of window nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Translates local indices back to node ids.
    pub fn to_node_ids(&self, order: &[usize]) -> Vec<NodeId> {
        order.iter().map(|&i| self.nodes[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    const KB: u64 = 1024;

    #[test]
    fn whole_graph_task_roots() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let _y = b.relu(a);
        let g = b.finish();
        let t = SchedTask::whole_graph(&g);
        assert_eq!(t.len(), 3);
        // x is an input: contributes to base; a and y allocate on exec.
        assert_eq!(t.base, KB);
        assert_eq!(t.roots.iter().filter(|r| r.alloc_at.is_some()).count(), 2);
        // a is freeable (its only user is in the window); y is terminal.
        let a_root = t.roots.iter().find(|r| r.alloc_at == Some(1)).unwrap();
        assert!(a_root.freeable);
        let y_root = t.roots.iter().find(|r| r.alloc_at == Some(2)).unwrap();
        assert!(!y_root.freeable);
    }

    #[test]
    fn subset_boundary_semantics() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let c = b.relu(a);
        let d = b.relu(c);
        let g = b.finish();
        // Window {c, d}: a is a boundary input -> base; c freeable, d not.
        let set: BTreeSet<NodeId> = [c, d].into_iter().collect();
        let t = SchedTask::subset(&g, &set);
        assert_eq!(t.base, KB, "boundary tensor a");
        assert_eq!(t.len(), 2);
        assert_eq!(t.preds[1], [0], "d depends on c locally");
        let _ = (x, a);
    }

    #[test]
    fn alias_users_attach_to_root() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let r = b.reshape(a, [16, 16]);
        let y = b.relu(r);
        let g = b.finish();
        let t = SchedTask::whole_graph(&g);
        // Root `a`: users include the alias r and the reader y.
        let a_root = t
            .roots
            .iter()
            .position(|ri| ri.alloc_at.is_some() && ri.bytes == KB && ri.freeable)
            .unwrap();
        assert_eq!(t.root_users[a_root].len(), 2);
        let _ = y;
    }
}
